package mystore

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSurface is ROADMAP item 3(e)/3(f)'s ratchet: every option has a
// caller, and every exported identifier in internal/ has a use. It
// type-checks the module from source (the standard library declarations
// only) and fails when
//
//   - (a) a field of a struct named *Options, *Config or Tuning in the root
//     package or internal/ is written by no non-test code — by no
//     composite-literal key, assignment, increment or address-of — other
//     than its own package's withDefaults. A value nothing sets is a
//     constant: make it one. unsetAllowed lists the exceptions. An
//     exported field only tests set is a constant too, or an unexported
//     field the package's own tests set; testSetAllowed lists the
//     exceptions.
//   - (b) an exported package-level identifier, or an exported method of an
//     exported type, in internal/ has no use in non-test code (bench/ and
//     cmd/ count as callers) and is not in testOnlyExports. That
//     list may shrink but not grow; an entry that gained a caller or no
//     longer exists fails too, so it gets deleted.
//
// Files planted in internal/ring, which exist only in memory, hold an
// exported and an unexported Config field nothing sets, an exported Config
// field only a test sets, an unexported one its package's test sets, and
// one unused exported func: the scan must report exactly the first three
// and the func, which keeps the checker honest.
func TestSurface(t *testing.T) {
	start := time.Now()
	m := loadModule(t, map[string]map[string]string{"mystore/internal/ring": {
		"planted.go":      plantedSource,
		"planted_test.go": plantedTestSource,
	}})

	unset, testSet := map[string]bool{}, map[string]bool{}
	unsetList, testSetList := m.unsetFields()
	for _, k := range unsetList {
		unset[k] = true
	}
	for _, k := range testSetList {
		testSet[k] = true
	}
	unused := map[string]bool{}
	for _, k := range m.unusedExports() {
		unused[k] = true
	}
	for _, planted := range []string{"ring.plantedConfig.Knob", "ring.plantedConfig.knob"} {
		if !unset[planted] {
			t.Errorf("(a) the planted field %s is not reported: the scan is broken", planted)
		}
		delete(unset, planted)
	}
	for _, planted := range []string{"ring.plantedConfig.Dial"} {
		if !testSet[planted] {
			t.Errorf("(a) the planted field %s, which only a test sets, is not reported: the scan is broken", planted)
		}
		delete(testSet, planted)
	}
	if unset["ring.plantedConfig.dial"] || testSet["ring.plantedConfig.dial"] {
		t.Errorf("(a) the planted unexported field ring.plantedConfig.dial, which its package's test sets, is reported: the scan is broken")
	}
	for _, planted := range []string{"ring.PlantedExport"} {
		if !unused[planted] {
			t.Errorf("(b) the planted func %s is not reported: the scan is broken", planted)
		}
		delete(unused, planted)
	}

	for _, k := range sortedKeys(unset) {
		if unsetAllowed[k] == "" {
			t.Errorf("(a) option %s: nothing sets it; delete it and use the value it defaults to", k)
		}
	}
	for k := range unsetAllowed {
		if !unset[k] {
			t.Errorf("(a) option %s has a caller now: drop it from unsetAllowed", k)
		}
	}
	for _, k := range sortedKeys(testSet) {
		if testSetAllowed[k] == "" {
			t.Errorf("(a) option %s: only tests set it; make it a constant, or an unexported variable its package's tests set", k)
		}
	}
	for k := range testSetAllowed {
		if !testSet[k] {
			t.Errorf("(a) option %s has a non-test caller now, or is gone: drop it from testSetAllowed", k)
		}
	}
	for _, k := range sortedKeys(unused) {
		if !testOnlyExports[k] {
			t.Errorf("(b) %s: exported from internal/ but no non-test code uses it; delete it (with its tests) or use it", k)
		}
	}
	for k := range testOnlyExports {
		if !unused[k] {
			t.Errorf("(b) %s is used outside tests, or gone: drop it from testOnlyExports", k)
		}
	}
	t.Logf("scanned %d packages in %v", len(m.pkgs), time.Since(start).Round(time.Millisecond))
}

// plantedSource and plantedTestSource are the checker's own test input (see
// TestSurface).
const plantedSource = `package ring

type plantedConfig struct{ Knob, Dial, knob, dial int }

func PlantedExport() plantedConfig { return plantedConfig{} }
`

const plantedTestSource = `package ring

var plantedDial = plantedConfig{Dial: 1, dial: 1}
`

// unsetAllowed are the option fields nothing sets that stay, each with why.
var unsetAllowed = map[string]string{
	"cluster.ClientOptions.ConnectTimeout": "the paper's connecttimeoutms client option (§5.1)",
	"cluster.ClientOptions.CallTimeout":    "the paper's sockettimeoutms client option (§5.1)",
	"mystore.NodeOptions.Tracer":           "ROADMAP item 9 decides the node-local tracer",
	"mystore.ClusterOptions.Seed":          "ROADMAP 3(e) keeps it and 4(a)'s simulator needs reproducible repair schedules",
	"transport.TCPOptions.DialTimeout":     "connecttimeoutms on the wire, as ClientOptions.ConnectTimeout",
	"transport.TCPOptions.CallTimeout":     "sockettimeoutms on the wire, as ClientOptions.CallTimeout",
}

// testSetAllowed are the option fields only tests set that stay, each with
// why. The list may shrink, never grow.
var testSetAllowed = map[string]string{
	"cluster.Config.Now":                           "ROADMAP item 17 replaces the Now fields with one injected clock",
	"trace.Config.Now":                             "ROADMAP item 17 replaces the Now fields with one injected clock",
	"mystore.ClusterOptions.StrongElectionTimeout": "mirrors mystore-server's -strong-election flag for in-process clusters",
	"wal.Options.SegmentSize":                      "docstore's WAL-truncation tests roll 4 KiB segments from outside the wal package",
	"largeobj.Config.ChunkSize":                    "the public PutLarge's chunk size (mystore.LargeObjectConfig)",
	"lsm.Tuning.BlockBytes":                        "docstore's equivalence test shrinks the table shape from outside lsm",
	"lsm.Tuning.LevelBaseBytes":                    "docstore's equivalence test shrinks the table shape from outside lsm",
	"lsm.Tuning.TargetFileBytes":                   "docstore's equivalence test shrinks the table shape from outside lsm",
}

// testOnlyExports are the exported identifiers in internal/ that only tests
// use today: String and Error methods; methods called only through an
// interface, and TCPTransport.SetTracer, which node.go finds by interface
// assertion; the methods of the types mystore aliases (Client, Node,
// TraceCollector, MetricsRegistry), which are the public API; and what
// tests in other packages need (bson.D.Set, lsm.Engine.CompactNow,
// nwr.Coordinator.ApplyLocal, ring.Ring.Clone and Nodes). The list may
// shrink, never grow.
var testOnlyExports = setOf(`
bson.D.Set
cluster.Client.Aggregate cluster.Client.GetDoc cluster.Client.Nodes
cluster.Client.PutDoc
cluster.Node.AEStats cluster.Node.Gossiper cluster.Node.Tracer
consensus.ErrNotLeader.Error
experiments.AblationResult.String experiments.ContextResult.String
experiments.Fig11Result.String experiments.Fig12Result.String
experiments.Fig13Result.String experiments.Fig15Result.String
experiments.Fig16Result.String experiments.Fig17Result.String
experiments.SoakResult.String
faults.Kind.String
gossip.Status.String
lsm.Engine.CompactNow
metrics.Registry.GaugeFunc metrics.Throughput.String
nwr.Coordinator.ApplyLocal
ring.Ring.Clone ring.Ring.Nodes
trace.Collector.Stats trace.Collector.Strays
transport.MemTransport.Addr transport.MemTransport.Call
transport.MemTransport.DeadlineDropped transport.MemTransport.RPCLatency
transport.RemoteError.Error
transport.TCPTransport.Addr transport.TCPTransport.Call
transport.TCPTransport.DeadlineDropped transport.TCPTransport.RPCLatency
transport.TCPTransport.SetHandler transport.TCPTransport.SetTracer
`)

// module is the type-checked module: every package's non-test files, and
// its test files checked with them.
type module struct {
	pkgs []*checkedPackage // dependency order
}

type checkedPackage struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
	test  bool // files include _test.go files
}

// listedPackage is the part of `go list -json` the scan reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Standard     bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	ImportMap    map[string]string
	Module       *struct{ Main bool }
}

// loadModule lists the module and its dependencies, parses them, and
// type-checks the standard library's declarations and the module's packages
// in full. extra adds in-memory source files, by name, to a package.
func loadModule(t *testing.T, extra map[string]map[string]string) *module {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-test", "-json", "./...")
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	var listed []*listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		// Skip the test variants ("p [p.test]") and generated test mains;
		// the plain package lists its own test files.
		if strings.Contains(p.ImportPath, " ") || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		if p.Standard || (p.Module != nil && p.Module.Main) {
			listed = append(listed, p)
		}
	}

	fset := token.NewFileSet()
	parsed := parseAll(t, fset, listed, extra)

	m := &module{}
	byPath := map[string]*types.Package{"unsafe": types.Unsafe}
	augmented := map[string]*types.Package{}
	sizes := types.SizesFor("gc", runtime.GOARCH)
	check := func(p *listedPackage, path string, files []*ast.File, full, test bool, imports map[string]*types.Package) *checkedPackage {
		cp := &checkedPackage{path: path, files: files, test: test}
		var firstErr error
		conf := types.Config{
			Importer: importerFunc(func(ip string) (*types.Package, error) {
				if mapped, ok := p.ImportMap[ip]; ok {
					ip = mapped
				}
				if pkg := imports[ip]; pkg != nil {
					return pkg, nil
				}
				if pkg := byPath[ip]; pkg != nil {
					return pkg, nil
				}
				return nil, os.ErrNotExist
			}),
			IgnoreFuncBodies: !full,
			Sizes:            sizes,
			Error: func(err error) {
				if firstErr == nil {
					firstErr = err
				}
			},
		}
		if full {
			cp.info = &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
		}
		cp.types, _ = conf.Check(path, fset, files, cp.info)
		// The standard library is checked for its declarations only, and a
		// test file set may mix package variants a real test build would
		// not; neither is this scan's business. The module's own code must
		// check cleanly.
		if firstErr != nil && full && !test {
			t.Fatalf("type-check %s: %v", path, firstErr)
		}
		return cp
	}
	for _, p := range listed {
		cp := check(p, p.ImportPath, parsed[p.ImportPath].goFiles, !p.Standard, false, nil)
		byPath[p.ImportPath] = cp.types
		if !p.Standard {
			m.pkgs = append(m.pkgs, cp)
		}
	}
	for _, p := range listed {
		if pf := parsed[p.ImportPath]; !p.Standard && len(pf.testFiles) > 0 {
			files := append(append([]*ast.File(nil), pf.goFiles...), pf.testFiles...)
			cp := check(p, p.ImportPath, files, true, true, nil)
			augmented[p.ImportPath] = cp.types
			m.pkgs = append(m.pkgs, cp)
		}
	}
	for _, p := range listed {
		if pf := parsed[p.ImportPath]; !p.Standard && len(pf.xtestFiles) > 0 {
			imports := map[string]*types.Package{}
			if a := augmented[p.ImportPath]; a != nil {
				imports[p.ImportPath] = a
			}
			m.pkgs = append(m.pkgs, check(p, p.ImportPath+"_test", pf.xtestFiles, true, true, imports))
		}
	}
	return m
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

type parsedPackage struct {
	goFiles, testFiles, xtestFiles []*ast.File
}

// parseAll parses every listed file on a few goroutines; the standard
// library's test files are not needed.
func parseAll(t *testing.T, fset *token.FileSet, listed []*listedPackage, extra map[string]map[string]string) map[string]*parsedPackage {
	srcs := map[string]any{} // file name -> in-memory source, or nil to read it
	for _, p := range listed {
		for _, names := range [][]string{p.GoFiles, p.TestGoFiles, p.XTestGoFiles} {
			for _, n := range names {
				srcs[filepath.Join(p.Dir, n)] = nil
			}
			if p.Standard {
				break
			}
		}
		for name, src := range extra[p.ImportPath] {
			srcs[filepath.Join(p.Dir, name)] = src
		}
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		files    = make(map[string]*ast.File, len(srcs))
		firstErr error
		next     = make(chan string)
	)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for name := range next {
				f, err := parser.ParseFile(fset, name, srcs[name], parser.SkipObjectResolution)
				mu.Lock()
				files[name] = f
				if err != nil && firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}()
	}
	for name := range srcs {
		next <- name
	}
	close(next)
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}

	out := map[string]*parsedPackage{}
	pick := func(dir string, names []string) []*ast.File {
		var fs []*ast.File
		for _, n := range names {
			fs = append(fs, files[filepath.Join(dir, n)])
		}
		return fs
	}
	for _, p := range listed {
		pp := &parsedPackage{goFiles: pick(p.Dir, p.GoFiles)}
		if !p.Standard {
			pp.testFiles = pick(p.Dir, p.TestGoFiles)
			pp.xtestFiles = pick(p.Dir, p.XTestGoFiles)
		}
		for name := range extra[p.ImportPath] {
			if strings.HasSuffix(name, "_test.go") {
				pp.testFiles = append(pp.testFiles, files[filepath.Join(p.Dir, name)])
			} else {
				pp.goFiles = append(pp.goFiles, files[filepath.Join(p.Dir, name)])
			}
		}
		out[p.ImportPath] = pp
	}
	return out
}

// optionStruct reports whether a type name is one (a) scans.
func optionStruct(name string) bool {
	return strings.HasSuffix(name, "Options") || strings.HasSuffix(name, "Config") || name == "Tuning"
}

// inScope reports whether a module package path is the root package or
// under internal/.
func inScope(path string) bool {
	return path == "mystore" || strings.HasPrefix(path, "mystore/internal/")
}

// fieldKey names a struct field as "pkg.Type.Field".
func fieldKey(pkg *types.Package, typeName, field string) string {
	return pkg.Name() + "." + typeName + "." + field
}

// unsetFields returns (a)'s findings: the fields nothing sets, and those
// only tests set.
func (m *module) unsetFields() (unset, testSet []string) {
	fields := map[*types.Var]string{} // every checked copy of every option field
	var all []string
	unexported := map[string]bool{}
	for _, cp := range m.pkgs {
		if !inScope(cp.path) || cp.types == nil {
			continue
		}
		scope := cp.types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !optionStruct(name) {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				k := fieldKey(cp.types, name, st.Field(i).Name())
				if _, seen := fields[st.Field(i)]; !seen && !cp.test {
					all = append(all, k)
					if !st.Field(i).Exported() {
						unexported[k] = true
					}
				}
				fields[st.Field(i)] = k
			}
		}
	}
	written, writtenOutsideTests := map[string]bool{}, map[string]bool{}
	for _, cp := range m.pkgs {
		write := func(obj types.Object) {
			if v, ok := obj.(*types.Var); ok {
				if k, ok := fields[v.Origin()]; ok {
					written[k] = true
					if !cp.test {
						writtenOutsideTests[k] = true
					}
				}
			}
		}
		for _, f := range cp.files {
			for _, decl := range f.Decls {
				fd, isFunc := decl.(*ast.FuncDecl)
				ownDefaults := isFunc && fd.Name.Name == "withDefaults"
				ast.Inspect(decl, func(n ast.Node) bool {
					var targets []ast.Expr
					switch n := n.(type) {
					case *ast.CompositeLit:
						st, _ := typeOf(cp.info, n).(*types.Struct)
						for i, elt := range n.Elts {
							if kv, ok := elt.(*ast.KeyValueExpr); ok {
								if id, ok := kv.Key.(*ast.Ident); ok {
									write(cp.info.Uses[id])
								}
							} else if st != nil && i < st.NumFields() {
								write(st.Field(i))
							}
						}
					case *ast.AssignStmt:
						targets = n.Lhs
					case *ast.IncDecStmt:
						targets = []ast.Expr{n.X}
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							targets = []ast.Expr{n.X}
						}
					}
					for _, e := range targets {
						sel, ok := stripIndex(e).(*ast.SelectorExpr)
						if !ok {
							continue
						}
						obj := cp.info.Uses[sel.Sel]
						if ownDefaults && obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == cp.path {
							continue
						}
						write(obj)
					}
					return true
				})
			}
		}
	}
	for _, k := range all {
		switch {
		case !written[k]:
			unset = append(unset, k)
		case !writtenOutsideTests[k] && !unexported[k]: // a package's own tests may set its unexported fields
			testSet = append(testSet, k)
		}
	}
	return unset, testSet
}

// typeOf is the underlying type of a composite literal, through a pointer.
func typeOf(info *types.Info, lit *ast.CompositeLit) types.Type {
	tv, ok := info.Types[lit]
	if !ok {
		return nil
	}
	typ := tv.Type.Underlying()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem().Underlying()
	}
	return typ
}

// stripIndex unwraps x[i], *x and (x) down to the selector being written.
func stripIndex(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return e
		}
	}
}

// unusedExports returns (b)'s findings.
func (m *module) unusedExports() []string {
	used := map[types.Object]bool{}
	for _, cp := range m.pkgs {
		if cp.test {
			continue
		}
		for _, obj := range cp.info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
		}
	}
	var unused []string
	for _, cp := range m.pkgs {
		if cp.test || !strings.HasPrefix(cp.path, "mystore/internal/") {
			continue
		}
		scope := cp.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			if !used[obj] {
				unused = append(unused, cp.types.Name()+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if meth := named.Method(i); meth.Exported() && !used[meth] {
					unused = append(unused, cp.types.Name()+"."+name+"."+meth.Name())
				}
			}
		}
	}
	return unused
}

// setOf is the set of the whitespace-separated words in s.
func setOf(s string) map[string]bool {
	set := map[string]bool{}
	for _, w := range strings.Fields(s) {
		set[w] = true
	}
	return set
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
