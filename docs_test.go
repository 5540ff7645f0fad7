package twopcp_test

import (
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"twopcp/internal/jobs"
)

// TestAPIDocsMatchRoutes diffs the endpoint headings in docs/API.md
// against the daemon's route table in both directions, so the HTTP
// surface and its documentation cannot drift apart: adding, removing or
// renaming a route fails this test until docs/API.md moves with it.
func TestAPIDocsMatchRoutes(t *testing.T) {
	data, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	headingRe := regexp.MustCompile("(?m)^### `([A-Z]+) (/[^`]*)`\\s*$")
	documented := make(map[string]bool)
	for _, m := range headingRe.FindAllStringSubmatch(string(data), -1) {
		documented[m[1]+" "+m[2]] = true
	}
	if len(documented) == 0 {
		t.Fatal("no `### `METHOD /path`` headings found in docs/API.md")
	}
	registered := make(map[string]bool)
	for _, r := range jobs.Routes {
		registered[r.Method+" "+r.Pattern] = true
	}
	for ep := range registered {
		if !documented[ep] {
			t.Errorf("endpoint %q is registered in jobs.Routes but has no heading in docs/API.md", ep)
		}
	}
	for ep := range documented {
		if !registered[ep] {
			t.Errorf("docs/API.md documents %q but jobs.Routes does not register it", ep)
		}
	}
}

// TestLayerMap holds the kernel and engine packages — the two lower boxes
// of docs/ARCHITECTURE.md's layer map, read from the map itself — to
// importing each other and the standard library only. So none of them
// reaches up to the root package, internal/cli, internal/jobs or
// internal/serve, or sideways into the paper-comparison code under
// internal/experiments/.
func TestLayerMap(t *testing.T) {
	data, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	from := strings.Index(doc, "│ engine")
	to := strings.Index(doc, "(side branch")
	if from < 0 || to < from {
		t.Fatal("docs/ARCHITECTURE.md has no engine box followed by the side branch")
	}
	lower := map[string]bool{}
	for _, pkg := range regexp.MustCompile(`internal/[a-z0-9]+`).FindAllString(doc[from:to], -1) {
		lower[pkg] = true
	}
	for _, pkg := range []string{"internal/phase1", "internal/refine", "internal/tensor", "internal/mat"} {
		if !lower[pkg] {
			t.Fatalf("%s missing from the layer map's two lower boxes (parsed %v)", pkg, lower)
		}
	}
	fset := token.NewFileSet()
	for pkg := range lower {
		files, err := filepath.Glob(filepath.Join(pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no Go files (%v)", pkg, err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				ip := strings.Trim(imp.Path.Value, `"`)
				if ip != "twopcp" && !strings.HasPrefix(ip, "twopcp/") {
					continue
				}
				if !lower[strings.TrimPrefix(ip, "twopcp/")] {
					t.Errorf("%s imports %s, which is outside the kernel and engine layers", path, ip)
				}
			}
		}
	}
}

// TestDocsLinks resolves every relative markdown link in README.md and
// docs/ so the cookbook cannot accumulate dead cross-references.
func TestDocsLinks(t *testing.T) {
	files := []string{"README.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	linkRe := regexp.MustCompile(`\]\(([^)\s]+)\)`)
	checked := 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range linkRe.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") {
				continue // external URL or intra-page anchor
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			resolved := filepath.Join(filepath.Dir(file), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (%v)", file, m[1], err)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no relative links found — the link scanner is broken")
	}
}

// TestGodocCoverage walks the root package and the service-layer
// packages with go/doc and fails on any exported identifier missing a
// doc comment. CI also runs staticcheck, but this keeps the
// exported-comment discipline enforced by plain `go test` everywhere.
func TestGodocCoverage(t *testing.T) {
	for _, dir := range []string{".", "internal/jobs", "internal/cli", "internal/factorsnap", "internal/serve"} {
		pkg := parseDocPackage(t, dir)
		if pkg.Doc == "" {
			t.Errorf("%s: package %s has no package comment", dir, pkg.Name)
		}
		var missing []string
		report := func(kind, name, docstr string) {
			if docstr == "" && ast.IsExported(name) {
				missing = append(missing, kind+" "+name)
			}
		}
		for _, v := range append(pkg.Consts, pkg.Vars...) {
			report("value group containing", v.Names[0], v.Doc)
		}
		for _, f := range pkg.Funcs {
			report("func", f.Name, f.Doc)
		}
		for _, ty := range pkg.Types {
			report("type", ty.Name, ty.Doc)
			for _, v := range append(ty.Consts, ty.Vars...) {
				report("value group containing", v.Names[0], v.Doc)
			}
			for _, f := range append(ty.Funcs, ty.Methods...) {
				report("func", fmt.Sprintf("%s (type %s)", f.Name, ty.Name), f.Doc)
			}
		}
		for _, m := range missing {
			t.Errorf("%s: exported %s has no doc comment", dir, m)
		}
	}
}

// parseDocPackage parses the non-test Go files of dir into a go/doc
// package model.
func parseDocPackage(t *testing.T, dir string) *doc.Package {
	t.Helper()
	fset := token.NewFileSet()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("%s: no Go files", dir)
	}
	pkg, err := doc.NewFromFiles(fset, files, "twopcp/"+dir)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}
