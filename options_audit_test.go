package tcpfailover_test

import (
	"cmp"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// auditedStructs are the configuration structs of the repo, by directory.
var auditedStructs = map[string][]string{
	".":                 {"Options", "ShardedOptions"},
	"internal/netstack": {"Profile"},
	"internal/ethernet": {"Config", "XConfig"},
	"internal/tcp":      {"Config"},
	"internal/replica":  {"Config"},
	"internal/detect":   {"Config"},
	"internal/arp":      {"Config"},
}

// knobCeiling bounds the exported fields of auditedStructs taken together,
// as CI's line ceilings bound the code. (Lowered 63 -> 57 as the defence
// off-switches and a flow cap went, 57 -> 56 as ShardedOptions' cell hook went.)
const knobCeiling = 56

// TestEveryOptionHasAWriter is the knob audit as a gate: an exported field
// of a configuration struct that nothing in the repo ever sets — no
// composite-literal key, no assignment, tests and benchmark/ included — has
// one value in use and should be a constant. The defaulting in the owning
// package's own withDefaults does not count as a writer. The match is by
// field name across the whole repo, so the audit may miss a dead knob that
// shares its name with a live one; it never flags a live one. The fields
// are also counted, against knobCeiling.
func TestEveryOptionHasAWriter(t *testing.T) {
	type write struct {
		dir        string
		defaulting bool // inside a func withDefaults
	}
	writes := map[string][]write{}
	fields := map[string][]string{} // "dir.Struct" -> exported field names
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range file.Decls {
			defaulting := false
			if fn, ok := decl.(*ast.FuncDecl); ok {
				defaulting = fn.Name.Name == "withDefaults"
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok || !slices.Contains(auditedStructs[dir], n.Name.Name) || strings.HasSuffix(path, "_test.go") {
						break
					}
					for _, f := range st.Fields.List {
						for _, name := range f.Names {
							if name.IsExported() {
								fields[dir+"."+n.Name.Name] = append(fields[dir+"."+n.Name.Name], name.Name)
							}
						}
					}
				case *ast.CompositeLit:
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if key, ok := kv.Key.(*ast.Ident); ok {
								writes[key.Name] = append(writes[key.Name], write{dir, defaulting})
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						// o.TCP.MSS = v sets MSS, and TCP with it.
						for sel, ok := lhs.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
							writes[sel.Sel.Name] = append(writes[sel.Sel.Name], write{dir, defaulting})
						}
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for dir, names := range auditedStructs {
		for _, name := range names {
			if len(fields[dir+"."+name]) == 0 {
				t.Errorf("%s: struct %s not found or has no exported fields", dir, name)
			}
			total += len(fields[dir+"."+name])
			for _, field := range fields[dir+"."+name] {
				if !slices.ContainsFunc(writes[field], func(w write) bool { return !(w.defaulting && w.dir == dir) }) {
					t.Errorf("%s: %s.%s is never set outside its own withDefaults: make it a constant", dir, name, field)
				}
			}
		}
	}
	if total > knobCeiling {
		t.Errorf("the audited structs hold %d exported fields, over the ceiling of %d", total, knobCeiling)
	}
}

// designCitation is a reference to a DESIGN.md section — "DESIGN §3",
// "DESIGN.md §9.3", "DESIGN.md section 8.2", also across a comment break.
var designCitation = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//|#)*(?:§\s?|sections?\s+)(\d+(?:\.\d+)?)`)

// TestDesignCitationsResolve fails on a citation of DESIGN.md, in a .go,
// .md or .yml file, whose section number has no heading there. CHANGES.md
// is a ledger: each entry keeps the numbering it was written against.
func TestDesignCitationsResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	headings := regexp.MustCompile(`(?m)^###? (\d+(?:\.\d+)?)[. ]`).FindAllStringSubmatch(string(design), -1)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.Name() == ".git" || d.Name() == ".bench_build" {
			return cmp.Or(err, filepath.SkipDir)
		}
		if d.IsDir() || path == "CHANGES.md" || !slices.Contains([]string{".go", ".md", ".yml"}, filepath.Ext(path)) {
			return nil
		}
		text, err := os.ReadFile(path)
		for _, m := range designCitation.FindAllStringSubmatch(string(text), -1) {
			if !slices.ContainsFunc(headings, func(h []string) bool { return h[1] == m[1] }) {
				t.Errorf("%s cites %q: DESIGN.md has no section %s", path, m[0], m[1])
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
