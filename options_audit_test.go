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
	"strconv"
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
}

// testSeams are the audited fields that only tests set, each kept for the
// reason given, keyed as "dir.Struct.Field" (the root package's "Struct.Field").
var testSeams = map[string]string{
	"internal/tcp.Config.ISS": "the sequence-number wraparound tests pick the initial sequence number",
	"Options.PeerPorts":       "paper §7.2 server-initiated connections, which no experiment opens",
	"Options.RouterARPDelay":  "the paper's interval T, which TestFailoverWithRouterARPDelay lengthens and no experiment does",
}

// knobCeiling is the exact count of the exported fields of auditedStructs
// taken together, as CI's line ceilings bound the code: a PR that adds a
// knob raises it in its own diff, one that removes one lowers it.
const knobCeiling = 44

// TestEveryOptionHasAWriter is the knob audit as a gate: an exported field
// of a configuration struct that no shipped code sets — no composite-literal
// key, no assignment in a non-test file outside examples/ and outside every
// withDefaults, benchmark/ included — has one value in use and should be a
// constant, unless testSeams names it. A key of a literal that names its type
// (T{...} or pkg.T{...}) sets that type's field; any other key, and an
// assignment, is matched by field name across the whole repo, so the audit
// may miss a dead knob that shares its name with a live one; it never flags
// a live one. The fields are also counted, against knobCeiling.
func TestEveryOptionHasAWriter(t *testing.T) {
	written := map[string]bool{}    // a field name, or a field as testSeams keys it
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
		shipped := !strings.HasSuffix(path, "_test.go") && dir != "examples" && !strings.HasPrefix(dir, "examples/")
		dirOf := map[string]string{} // import name -> the package's directory
		for _, imp := range file.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			dirOf[name] = cmp.Or(strings.TrimPrefix(strings.TrimPrefix(p, "tcpfailover"), "/"), ".")
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Name.Name == "withDefaults" {
				continue
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.TypeSpec:
					st, ok := n.Type.(*ast.StructType)
					if !ok || !slices.Contains(auditedStructs[dir], n.Name.Name) || !shipped {
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
					owner := "" // "dir.Struct." when the literal names its type
					switch typ := n.Type.(type) {
					case *ast.Ident:
						owner = qualified(dir, typ.Name) + "."
					case *ast.SelectorExpr:
						if pkg, ok := typ.X.(*ast.Ident); ok {
							owner = qualified(dirOf[pkg.Name], typ.Sel.Name) + "."
						}
					}
					for _, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok && shipped {
							if key, ok := kv.Key.(*ast.Ident); ok {
								written[owner+key.Name] = true
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						// o.TCP.MSS = v sets MSS, and TCP with it.
						for sel, ok := lhs.(*ast.SelectorExpr); ok && shipped; sel, ok = sel.X.(*ast.SelectorExpr) {
							written[sel.Sel.Name] = true
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
				key := qualified(dir, name) + "." + field
				if _, seam := testSeams[key]; !seam && !written[field] && !written[key] {
					t.Errorf("%s: %s.%s is set by no shipped code, only by tests, examples or a withDefaults: make it a constant", dir, name, field)
				}
			}
		}
	}
	if total != knobCeiling {
		t.Errorf("the audited structs hold %d exported fields; knobCeiling says %d", total, knobCeiling)
	}
}

// qualified is struct name of the package in dir, as testSeams keys it.
func qualified(dir, name string) string {
	if dir == "." {
		return name
	}
	return dir + "." + name
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

// testCitation is a code span or fenced block; testName is a test, fuzz
// target or benchmark named in one, alone or in a command ("`TestX/sub`",
// "`go test -run 'TestX|TestY'`"). Fences match first, so their three
// backticks never pair with an inline span's one.
var (
	testCitation = regexp.MustCompile("(?s)```.*?```|`[^`]+`")
	testName     = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z0-9_]\w*`)
	testFunc     = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)
)

// TestTestCitationsResolve fails on a test name cited in DESIGN.md,
// EXPERIMENTS.md or README.md that no _test.go file declares, so a doc
// cannot lean on a check that has gone. A subtest's name after "/" is not
// checked.
func TestTestCitationsResolve(t *testing.T) {
	declared := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.Name() == ".git" || d.Name() == ".bench_build" {
			return cmp.Or(err, filepath.SkipDir)
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		text, err := os.ReadFile(path)
		for _, m := range testFunc.FindAllSubmatch(text, -1) {
			declared[string(m[1])] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md", "README.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range testCitation.FindAllString(string(text), -1) {
			for _, name := range testName.FindAllString(span, -1) {
				if !declared[name] {
					t.Errorf("%s cites %s, which no _test.go declares", doc, name)
				}
			}
		}
	}
}
