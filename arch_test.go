package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// archRule reserves a set of method names to one package: a reference
// to any of them (a call or a method value) anywhere else in the
// module's non-test code is a violation, unless the enclosing function
// is allowlisted as "dir/file.go:Func". An import path in methods
// reserves importing that package; its enclosing function is
// "(imports)". Allowlists may only shrink: an entry that no longer
// matches anything fails the test too, so a deletion cannot quietly
// leave room for the code to grow back.
type archRule struct {
	why     string
	methods []string
	owner   string // slash-separated package directory
	allow   []string
}

var archRules = []archRule{
	{
		why:     "every durable log syncs through one group-commit path",
		methods: []string{"Sync"},
		owner:   "internal/jsonl",
	},
	{
		why: "Fig. 5's fill and Fig. 6's SP200 steps are written once, as core.FillCell, core.PowerUpSP200 and core.StartCV",
		methods: []string{
			"CallInitializeSP200API", "CallConnectSP200", "CallLoadFirmwareSP200",
			"CallInitializeCVTechSP200", "CallLoadTechniqueSP200", "CallStartChannelSP200",
			"WithdrawSyringePump", "DispenseSyringePump",
		},
		owner: "internal/core",
		// The workbench transcripts reproduce the paper's figures call
		// by call, with the figure's own labels.
		allow: []string{"cmd/workbench/main.go:fig5", "cmd/workbench/main.go:fig6"},
	},
	{
		why:     "control-channel proxies are opened in one place, internal/core's session dial helpers",
		methods: []string{"DialConfig", "NewReconnectingProxy"},
		owner:   "internal/core",
	},
	{
		why:     "test helpers stay out of the programs",
		methods: []string{"ice/internal/testutil"},
		owner:   "internal/testutil",
	},
}

// archRef is one selector reference in non-test code.
type archRef struct {
	file, fn, method string
	pos              token.Position
}

func TestArchitecture(t *testing.T) {
	refs := scanModuleRefs(t, ".")
	for _, rule := range archRules {
		reserved := map[string]bool{}
		for _, m := range rule.methods {
			reserved[m] = true
		}
		used := map[string]bool{}
		for _, r := range refs {
			if !reserved[r.method] || filepath.ToSlash(filepath.Dir(r.file)) == rule.owner {
				continue
			}
			key := r.file + ":" + r.fn
			if slices.Contains(rule.allow, key) {
				used[key] = true
				continue
			}
			t.Errorf("%s: %s references %s outside %s (%s)", r.pos, r.fn, r.method, rule.owner, rule.why)
		}
		for _, a := range rule.allow {
			if !used[a] {
				t.Errorf("allowlist entry %q matches nothing: delete it", a)
			}
		}
	}
}

// scanModuleRefs parses every non-test Go file under root, skipping
// nested modules and testdata, and returns every selector reference
// with the top-level function that encloses it.
func scanModuleRefs(t *testing.T, root string) []archRef {
	t.Helper()
	fset := token.NewFileSet()
	var refs []archRef
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			name := d.Name()
			if strings.HasPrefix(name, ".") || name == "testdata" || isModuleRoot(path) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(path)
		for _, imp := range f.Imports {
			refs = append(refs, archRef{file: rel, fn: "(imports)", method: strings.Trim(imp.Path.Value, `"`), pos: fset.Position(imp.Pos())})
		}
		for _, decl := range f.Decls {
			fn := "(package scope)"
			if fd, ok := decl.(*ast.FuncDecl); ok {
				fn = fd.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					refs = append(refs, archRef{file: rel, fn: fn, method: sel.Sel.Name, pos: fset.Position(sel.Sel.Pos())})
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("no Go files found: run from the module root")
	}
	return refs
}

func isModuleRoot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, "go.mod"))
	return err == nil
}
