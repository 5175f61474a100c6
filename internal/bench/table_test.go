package bench

import (
	"bytes"
	"encoding/json"
	"flag"
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
// ExperimentNames is the table order, and the flag set the axes register is
// exactly the one the command has always had — names and defaults.
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

	byFlag := make(map[string]*Axis)
	for _, e := range table {
		for _, ax := range e.Axes {
			if prev, ok := byFlag[ax.Flag]; ok && prev != ax {
				t.Errorf("two axes share the flag name -%s", ax.Flag)
			}
			byFlag[ax.Flag] = ax
		}
	}
	var cfg Config
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	parseLists := RegisterFlags(fs, &cfg)
	got := make(map[string]string)
	fs.VisitAll(func(f *flag.Flag) { got[f.Name] = f.DefValue })
	want := map[string]string{
		"conns": "51", "reps": "5", "stream": "104857600", "runs": "9",
		"faultrates": "", "memscale": "",
		"sloloads": "", "slowindow": "0s", "sloworkload": "", "stallscale": "",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("axis flags and defaults = %v, want %v", got, want)
	}

	// The defaults land in the Config the flags write, lists parse into
	// their fields, and a bad entry names its own flag.
	if err := fs.Parse([]string{"-memscale", "1, 2", "-faultrates", "0,0.5", "-slowindow", "2s"}); err != nil {
		t.Fatal(err)
	}
	if err := parseLists(); err != nil {
		t.Fatal(err)
	}
	wantCfg := Config{Conns: 51, Reps: 5, Stream: 100 << 20, Runs: 9,
		MemScale: []int{1, 2}, FaultRates: []float64{0, 0.5}, SLOWindow: 2e9}
	if !reflect.DeepEqual(cfg, wantCfg) {
		t.Errorf("parsed config = %+v, want %+v", cfg, wantCfg)
	}
	for _, bad := range [][2]string{{"memscale", "0"}, {"faultrates", "1.5"}, {"sloloads", "x"}} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		parseLists := RegisterFlags(fs, new(Config))
		if err := fs.Parse([]string{"-" + bad[0], bad[1]}); err != nil {
			t.Fatal(err)
		}
		if err := parseLists(); err == nil || !strings.Contains(err.Error(), "bad -"+bad[0]+" entry") {
			t.Errorf("-%s %s: error %v, want a bad-entry error naming the flag", bad[0], bad[1], err)
		}
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
		e.Render(&alone, traj.Config, &own)
		e.Render(&among, traj.Config, &traj.Results)
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
