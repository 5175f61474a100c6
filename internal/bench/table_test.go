package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// resultsKeys maps every JSON key of Results to its field index.
func resultsKeys(t *testing.T) map[string]int {
	t.Helper()
	keys := make(map[string]int)
	rt := reflect.TypeOf(Results{})
	for i := 0; i < rt.NumField(); i++ {
		key, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		if key == "" {
			t.Fatalf("Results.%s has no JSON key", rt.Field(i).Name)
		}
		keys[key] = i
	}
	return keys
}

// TestTableCoversResults checks the table against the types it feeds: every
// Results field belongs to exactly one row, every row can run and render,
// and ExperimentNames is the table order.
func TestTableCoversResults(t *testing.T) {
	keys := resultsKeys(t)
	owner := make(map[string]string)
	for _, e := range table {
		if e.Run == nil || e.Render == nil {
			t.Errorf("row %q lacks Run or Render", e.Name)
		}
		if len(e.Keys) == 0 {
			t.Errorf("row %q writes no Results key", e.Name)
		}
		for _, k := range e.Keys {
			if _, ok := keys[k]; !ok {
				t.Errorf("row %q claims %q, which is not a JSON key of Results", e.Name, k)
			}
			if prev, dup := owner[k]; dup {
				t.Errorf("Results key %q claimed by both %q and %q", k, prev, e.Name)
			}
			owner[k] = e.Name
		}
	}
	for k := range keys {
		if owner[k] == "" {
			t.Errorf("Results key %q is written by no row", k)
		}
	}

	var order []string
	for _, e := range table {
		order = append(order, e.Name)
	}
	if got := ExperimentNames(); !slices.Equal(got, order) {
		t.Errorf("ExperimentNames() = %v, table order %v", got, order)
	}
	if slices.Contains(order, "all") {
		t.Error(`a row is named "all", the pseudo-name`)
	}
}

// TestRenderIsPure renders the committed full run from its JSON file: every
// row prints with no simulation behind it, twice to the same bytes, and a
// row handed only the Results fields it claims prints the same as when
// handed all of them — so the rendered tables are a function of the JSON
// alone, which is what checking EXPERIMENTS.md against the JSON needs. The
// file decodes with no unknown field and re-encodes to the same bytes, so a
// retired experiment cannot leave its rows behind.
func TestRenderIsPure(t *testing.T) {
	blob, err := os.ReadFile("../../BENCH_trajectory.json")
	if err != nil {
		t.Fatal(err)
	}
	var traj Trajectory
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&traj); err != nil {
		t.Fatal(err)
	}
	if again, err := json.MarshalIndent(traj, "", "  "); err != nil || !bytes.Equal(append(again, '\n'), blob) {
		t.Fatalf("BENCH_trajectory.json does not round-trip through Trajectory (err %v)", err)
	}
	sims := simsBuilt.Load()
	var first, second bytes.Buffer
	traj.Render(&first)
	traj.Render(&second)
	if first.Len() == 0 || !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two renderings of the same trajectory differ (%d vs %d bytes)", first.Len(), second.Len())
	}

	keys := resultsKeys(t)
	var joined bytes.Buffer
	for _, e := range table {
		var own Results
		for _, k := range e.Keys {
			f := keys[k]
			reflect.ValueOf(&own).Elem().Field(f).Set(reflect.ValueOf(traj.Results).Field(f))
		}
		var alone, among bytes.Buffer
		e.Render(&alone, &own)
		e.Render(&among, &traj.Results)
		if alone.Len() == 0 {
			t.Errorf("row %q rendered nothing from the committed run", e.Name)
		}
		if !bytes.Equal(alone.Bytes(), among.Bytes()) {
			t.Errorf("row %q reads Results fields beyond its Keys %v", e.Name, e.Keys)
		}
		joined.Write(among.Bytes())
	}
	if !bytes.Equal(joined.Bytes(), first.Bytes()) {
		t.Error("Trajectory.Render is not the rows' renderings in table order")
	}
	if simsBuilt.Load() != sims {
		t.Error("rendering ran a simulation")
	}
}
