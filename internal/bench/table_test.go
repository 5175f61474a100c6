package bench

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
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

// renderedBlock is one block of EXPERIMENTS.md: the marker, which is also
// the command that prints the block, and the fenced text under it.
var renderedBlock = regexp.MustCompile("(?s)<!-- failover-bench -experiment (\\S+) -->\n(?:```text\n(.*?)```\n)?")

// TestExperimentsMatchRecord holds EXPERIMENTS.md to the committed run:
// every row's rendering of BENCH_trajectory.json, less its closing blank
// line, is the one block under that row's marker. A block that differs by
// a byte, a row with no block or two, and a marker naming no row fail.
func TestExperimentsMatchRecord(t *testing.T) {
	blob, err := os.ReadFile("../../BENCH_trajectory.json")
	if err != nil {
		t.Fatal(err)
	}
	var traj Trajectory
	if err := json.Unmarshal(blob, &traj); err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	blocks := make(map[string][]string)
	for _, m := range renderedBlock.FindAllStringSubmatch(string(doc), -1) {
		blocks[m[1]] = append(blocks[m[1]], m[2])
	}
	for _, e := range table {
		var want strings.Builder
		e.Render(&want, &traj.Results)
		got := blocks[e.Name]
		delete(blocks, e.Name)
		if len(got) != 1 {
			t.Errorf("EXPERIMENTS.md has %d blocks for %q, want 1", len(got), e.Name)
		} else if got[0] != strings.TrimRight(want.String(), "\n")+"\n" {
			t.Errorf("EXPERIMENTS.md's %q block is not the committed run's; it renders as\n%s", e.Name, want.String())
		}
	}
	for name := range blocks {
		t.Errorf("EXPERIMENTS.md has a block for %q, which is no experiment", name)
	}
}
