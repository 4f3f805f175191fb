package battsched_test

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// linkAllowlist names the functions declared in non-test code under
// internal/ that no program of the repository links, each with the reason it
// stays: README or doc.go names it, or another package's tests need it (a
// _test.go file is visible only to its own package's tests). A key is the
// symbol as `go tool nm` prints it, relative to the module.
var linkAllowlist = map[string]string{
	"internal/profile.(*Profile).Clone": "README's aliasing contract: copy a reused engine's profile with Profile.Clone",

	"internal/trace.(*Trace).FrequencyIsLocallyNonIncreasing": "internal/core's TestCCEDFFrequencyLocallyNonIncreasing checks battery guideline 1 on engine traces with it",
	"internal/trace.(*Trace).BusyTime":                        "internal/core's golden rendering and TestSingleTaskNoDVSWorstCase read engine traces' busy time with it",
	"internal/trace.(*Trace).IdleTime":                        "internal/core's golden rendering reads engine traces' idle time with it",

	"internal/taskgraph.(*FixedFractionExecution).Actual": "internal/core's engine tests run with FixedFractionExecution (the facade re-exports the type)",
	"internal/battery/stochastic.(*Battery).Params":       "internal/battery's batch tests build scaled and slot-exact stochastic models from the defaults",

	"internal/service.(*Server).Job":      "internal/federation's tests read a coordinator's job statuses with it",
	"internal/service.(*Server).Artifact": "internal/federation's tests read a coordinator's finished artifacts with it",

	"internal/service/client.(*Client).Job":         "internal/service's and internal/federation's tests read job statuses over HTTP with it",
	"internal/service/client.(*Client).Reports":     "the facade's TestPublicAPIExperimentService decodes a served report with it",
	"internal/service/client.(*Client).ReportTable": "internal/service's TestReportTableFormat reads GET /v1/jobs/{id}/report?format=table with it",
	"internal/service/client.(*Client).Experiments": "internal/service's TestRegistryEndpointsAndHealth reads GET /v1/experiments with it",
	"internal/service/client.(*Client).Batteries":   "internal/service's TestRegistryEndpointsAndHealth reads GET /v1/batteries with it",
}

// TestEveryInternalFunctionIsLinked builds every program of the repository —
// the commands, the examples and the benchmark — with inlining off, reads
// their symbol tables, and fails with the position of every function declared
// in non-test code under internal/ that none of them links and that
// linkAllowlist does not name. A closure or a generic instantiation counts as
// a link to the function it belongs to.
//
// The gate cannot see one kind of dead method. The linker keeps every method
// of a type a program uses whose name and signature match a method of an
// interface the program calls dynamically, such as String() string through
// fmt.Stringer or Len() int through sort.Interface, even when nothing calls
// it. Such a method reads as linked here however dead it is; only a search
// for its callers finds it.
func TestEveryInternalFunctionIsLinked(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	env := append(os.Environ(), "GOFLAGS=", "GOPROXY=off", "GOTOOLCHAIN=local")
	goCmd := func(args ...string) []byte {
		t.Helper()
		cmd := exec.Command(goBin, args...)
		cmd.Env = env
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
		}
		return out
	}
	// Inlining off, so that a function called only where it was inlined
	// keeps its symbol; no DWARF (-w), which go tool nm does not read.
	build := func(dir string, args ...string) {
		goCmd(append([]string{"-C", dir, "build", "-gcflags=all=-l", "-ldflags=-w"}, args...)...)
	}
	build(".", "-o", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	build("bench", "-o", filepath.Join(bin, "battbench"), ".")

	programs, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(programs) != 12 {
		t.Fatalf("built %d programs, want the 5 commands, 6 examples and battbench", len(programs))
	}
	linked := map[string]bool{}
	for _, p := range programs {
		for sc := bufio.NewScanner(bytes.NewReader(goCmd("tool", "nm", filepath.Join(bin, p.Name())))); sc.Scan(); {
			fields := strings.Fields(sc.Text())
			if len(fields) < 3 || (fields[1] != "T" && fields[1] != "t") {
				continue
			}
			name, ok := strings.CutPrefix(strings.Join(fields[2:], " "), "battsched/")
			if !ok {
				continue
			}
			markLinked(linked, name)
		}
	}

	declared, err := internalFuncs("internal")
	if err != nil {
		t.Fatal(err)
	}
	var unlinked []string
	allowed := map[string]bool{}
	for _, d := range declared {
		_, ok := linkAllowlist[d.key]
		switch {
		case ok && linked[d.key]:
			t.Errorf("%s: allowlisted %s is linked; drop it from linkAllowlist", d.pos, d.key)
		case !ok && !linked[d.key]:
			unlinked = append(unlinked, d.pos+": "+d.key)
		}
		allowed[d.key] = ok
	}
	for key := range linkAllowlist {
		if !allowed[key] {
			t.Errorf("allowlisted %s is not declared; drop it from linkAllowlist", key)
		}
	}
	if len(unlinked) > 0 {
		t.Errorf("%d functions in internal/ are linked by no program; delete them, move them into a _test.go file, or allowlist them with a reason:\n%s",
			len(unlinked), strings.Join(unlinked, "\n"))
	}
}

// markLinked records the function keys one text symbol links: the symbol
// with its type arguments dropped, and every dotted prefix of it that names a
// function, so "internal/x.(*T).M.func1" also links "internal/x.(*T).M".
func markLinked(linked map[string]bool, sym string) {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	sym = strings.TrimSuffix(b.String(), "-fm")
	slash := strings.LastIndexByte(sym, '/')
	dot := strings.IndexByte(sym[slash+1:], '.')
	if dot < 0 {
		return
	}
	pkg, rest := sym[:slash+1+dot], strings.Split(sym[slash+2+dot:], ".")
	for i := range rest {
		linked[pkg+"."+strings.Join(rest[:i+1], ".")] = true
	}
}

// funcDecl is one function declared in non-test code.
type funcDecl struct {
	key string // as markLinked spells it
	pos string // file:line
}

// internalFuncs lists every function and method declared in the non-test Go
// files of the packages under root, in file order, leaving out init.
func internalFuncs(root string) ([]funcDecl, error) {
	var decls []funcDecl
	err := filepath.WalkDir(root, func(dir string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		pkg, err := build.ImportDir(dir, 0)
		if noGo := new(build.NoGoError); errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		for _, name := range pkg.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
					continue
				}
				key := filepath.ToSlash(dir) + "." + fn.Name.Name
				if fn.Recv != nil {
					key = filepath.ToSlash(dir) + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
				}
				pos := fset.Position(fn.Pos())
				decls = append(decls, funcDecl{key: key, pos: fmt.Sprintf("%s:%d", pos.Filename, pos.Line)})
			}
		}
		return nil
	})
	return decls, err
}

// receiverName spells a method's receiver type as the linker does: "T" for a
// value receiver and "(*T)" for a pointer one, without type parameters.
func receiverName(expr ast.Expr) string {
	star, ptr := expr.(*ast.StarExpr)
	if ptr {
		expr = star.X
	}
	switch x := expr.(type) {
	case *ast.IndexExpr:
		expr = x.X
	case *ast.IndexListExpr:
		expr = x.X
	}
	name := expr.(*ast.Ident).Name
	if ptr {
		return "(*" + name + ")"
	}
	return name
}
