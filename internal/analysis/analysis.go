// Package analysis is the repo's own static-analysis driver: a
// dependency-free (go/parser + go/types, no golang.org/x/tools) framework
// plus the project-invariant analyzers behind cmd/emlint. The analyzers
// enforce the conventions DESIGN.md §5–§7 establish — fan-out only through
// internal/parallel, no wall-clock or global randomness in result-producing
// paths, canonical metric names, and context.Context first — so the
// conventions survive codebase growth instead of living only in
// documentation. Copying lock-bearing types is left to go vet's copylocks.
//
// Every diagnostic can be suppressed at a sanctioned call site with a
// directive comment on the flagged line, the line directly above it, or in
// the doc comment of the enclosing top-level declaration:
//
//	//emlint:allow nondeterminism -- wall-clock timing is the product here
//
// The text after "--" is a required-by-convention human justification.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// TextEdit is one byte-range replacement inside a file. Start and End are
// 0-based byte offsets into the file named by Filename; the half-open
// range [Start, End) is replaced by NewText. An insertion has Start == End.
type TextEdit struct {
	Filename string `json:"file"`
	Start    int    `json:"start"`
	End      int    `json:"end"`
	NewText  string `json:"new_text"`
}

// SuggestedFix is a machine-applicable repair attached to a diagnostic:
// a set of non-overlapping edits that, applied together, resolve the
// finding. emlint -fix applies fixes whose edits do not collide with
// edits already accepted from earlier diagnostics.
type SuggestedFix struct {
	Message string     `json:"message"`
	Edits   []TextEdit `json:"edits"`
}

// Diagnostic is one analyzer finding at a source position, optionally
// carrying machine-applicable fixes.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
	Fixes   []SuggestedFix
}

// String renders the diagnostic in the file:line:col form emlint prints.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Pass is the per-(package, analyzer) run state handed to an analyzer.
type Pass struct {
	*Package
	// Files is the subset of the package's files the analyzer should
	// inspect (test files are filtered out unless the analyzer opts in).
	Files []*ast.File
	// Prog is the analysis unit the package was loaded as. Under Run it is
	// a single-package program (no cross-package edges); under RunProgram
	// it carries the module-local dependency closure, and Prog.CallGraph()
	// resolves calls across package boundaries. Diagnostics still anchor
	// only in Pass.Package (the program root).
	Prog *Program

	check string
	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	})
}

// ReportFix records a diagnostic at pos carrying a machine-applicable fix.
// A fix with no edits is dropped (the diagnostic is still reported), so
// analyzers can build edits optimistically and bail without branching.
func (p *Pass) ReportFix(pos token.Pos, fix SuggestedFix, format string, args ...any) {
	d := Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   p.check,
		Message: fmt.Sprintf(format, args...),
	}
	if len(fix.Edits) > 0 {
		d.Fixes = []SuggestedFix{fix}
	}
	p.diags = append(p.diags, d)
}

// Edit builds a TextEdit replacing the source range [from, to) with text,
// converting token positions to the byte offsets the fix engine applies.
func (p *Pass) Edit(from, to token.Pos, text string) TextEdit {
	start := p.Fset.Position(from)
	end := p.Fset.Position(to)
	return TextEdit{
		Filename: start.Filename,
		Start:    start.Offset,
		End:      end.Offset,
		NewText:  text,
	}
}

// Analyzer is one invariant check.
type Analyzer struct {
	// Name is the check name diagnostics carry and allow comments cite.
	Name string
	// Doc is the one-line description emlint -list prints.
	Doc string
	// Tests opts the analyzer into _test.go files. Checks about
	// production fan-out, clocks, and metric series skip tests (tests
	// legitimately orchestrate goroutines and scratch series); API checks
	// run everywhere.
	Tests bool
	// Run inspects pass.Files and reports through pass.Reportf.
	Run func(pass *Pass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AliasLeak,
		AllocGuard,
		AtomicMix,
		CtxFirst,
		CtxFlow,
		ErrDrop,
		EscapeCheck,
		HotAlloc,
		HTTPErrors,
		LockOrder,
		LockSafety,
		MapOrder,
		MetricNames,
		NoGoroutine,
		NonDeterminism,
		RLockWrite,
		StaleAllow,
	}
}

// ByName resolves a comma-separated check list against the suite.
func ByName(names string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown check %q", name)
		}
		out = append(out, a)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("analysis: empty check list")
	}
	return out, nil
}

// isTestFile reports whether the file at pos is a _test.go file.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// Run executes the analyzers over one package as a single-package program
// and returns the surviving (not allow-suppressed) diagnostics sorted by
// position.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunProgram(singleProgram(pkg), analyzers)
}

// RunProgram executes the analyzers over a program, anchoring diagnostics
// in the root package. Allow directives are tracked: when the staleallow
// analyzer is in the list, directives that suppressed nothing across the
// whole run are themselves reported (a directive citing a check outside
// the executed list is left alone — this run cannot tell if it earns its
// keep).
func RunProgram(prog *Program, analyzers []*Analyzer) []Diagnostic {
	pkg := prog.Root
	allows := collectAllows(pkg)
	executed := make(map[string]bool, len(analyzers))
	auditAllows := false
	out := make([]Diagnostic, 0, len(analyzers))
	for _, a := range analyzers {
		executed[a.Name] = true
		if a.Name == StaleAllow.Name {
			// Emitted after every other analyzer has had its chance to hit
			// the directives.
			auditAllows = true
			continue
		}
		pass := &Pass{Package: pkg, Prog: prog, check: a.Name}
		for _, f := range pkg.Files {
			if a.Tests || !isTestFile(pkg.Fset, f) {
				pass.Files = append(pass.Files, f)
			}
		}
		a.Run(pass)
		for _, d := range pass.diags {
			if !allows.allows(d) {
				out = append(out, d)
			}
		}
	}
	if auditAllows {
		for _, d := range allows.stale(executed) {
			if !allows.allows(d) {
				out = append(out, d)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return out
}
