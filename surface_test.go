package fzmod_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Why an operation entry point exists. Each operation (compress,
// decompress, stream each way, region read, salvage) has one function that
// does the work; any other name must be one something outside the lowering
// calls.
const (
	reasonLowering   = "the lowering"         // the operation's one function
	reasonCompressor = "core.Compressor"      // the uniform compressor contract
	reasonAdapter    = "benchmark/adapter.go" // the benchmark calls it by name
)

// operationSurface is every exported Compress*/Decompress*/Read* function
// and method of the facade and internal/core, with its reason.
var operationSurface = map[string]string{
	"core.(*Pipeline).Compress":                 reasonCompressor,
	"core.(*Pipeline).Decompress":               reasonCompressor,
	"core.(*Pipeline).CompressChunkedReportCtx": reasonLowering,
	"core.(*Pipeline).CompressChunkedReport":    reasonAdapter,
	"core.DecompressReportWithOptsCtx":          reasonLowering,
	"core.DecompressReportWithOpts":             reasonAdapter,
	"core.(*Pipeline).CompressStreamCtx":        reasonLowering,
	"core.DecompressStreamCtx":                  reasonLowering,
	"core.(*Region).ReadReportCtx":              reasonLowering,
	"core.(*Region).ReadReport":                 reasonAdapter,
	"core.DecompressSalvageCtx":                 reasonLowering,
	"fzmod.Decompress":                          reasonLowering,
	"fzmod.DecompressSalvage":                   reasonLowering,
	"fzmod.CompressStream":                      reasonAdapter,
	"fzmod.DecompressStream":                    reasonAdapter,
}

// moduleTypes implement the module interfaces (core.Secondary's
// Compress/Decompress); their methods are stages, not operations.
var moduleTypes = map[string]bool{"LZSecondary": true}

var operationName = regexp.MustCompile(`^(Compress|Decompress|Read)([A-Z]|$)`)

// TestOperationSurface pins the operation entry points: a Ctx / Report /
// WithOpts / one-shot permutation added to the facade or core fails here
// until it is given a reason in operationSurface, and a row whose reason is
// the benchmark adapter fails once the adapter stops calling it.
func TestOperationSurface(t *testing.T) {
	got := map[string]bool{}
	collect := func(pkg, path string) {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || !operationName.MatchString(fn.Name.Name) {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				typ, ptr := fn.Recv.List[0].Type, ""
				if star, ok := typ.(*ast.StarExpr); ok {
					typ, ptr = star.X, "*"
				}
				recv := typ.(*ast.Ident).Name
				if moduleTypes[recv] {
					continue
				}
				name = pkg + ".(" + ptr + recv + ")." + fn.Name.Name
			}
			got[name] = true
		}
	}
	collect("fzmod", "fzmod.go")
	files, err := filepath.Glob(filepath.Join("internal", "core", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		if !strings.HasSuffix(path, "_test.go") {
			collect("core", path)
		}
	}

	var extra, missing []string
	for name := range got {
		if _, ok := operationSurface[name]; !ok {
			extra = append(extra, name)
		}
	}
	for name := range operationSurface {
		if !got[name] {
			missing = append(missing, name)
		}
	}
	sort.Strings(extra)
	sort.Strings(missing)
	for _, name := range extra {
		t.Errorf("%s is an operation entry point with no reason: call the operation's one function instead", name)
	}
	for _, name := range missing {
		t.Errorf("%s is declared in operationSurface but not defined", name)
	}

	adapter, err := os.ReadFile(filepath.Join("benchmark", "adapter.go"))
	if err != nil {
		t.Fatal(err)
	}
	for name, reason := range operationSurface {
		if reason != reasonAdapter {
			continue
		}
		call := name[strings.LastIndexByte(name, '.')+1:] + "("
		if !strings.Contains(string(adapter), call) {
			t.Errorf("%s is kept for benchmark/adapter.go, which no longer calls it", name)
		}
	}
}
