package avdb_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported internal/ API that has no non-test
// caller yet stays, each with the test or ROADMAP item that needs it.
var exportAllowlist = map[string]string{
	// The fault-injection and fault-tolerance surface.  The chaos and
	// recovery tests drive it to check storage, engine and graph code
	// that stays; ROADMAP item 11's op-stream fuzzer decides its fate.
	"fault.NewPlan":                          faultSurface,
	"fault.NewInjector":                      faultSurface,
	"fault.DefaultRetry":                     faultSurface,
	"fault.Plan.MustAdd":                     faultSurface,
	"fault.Plan.Faults":                      "TestPlanValidation reads a plan back; " + faultSurface,
	"fault.Injector.CountString":             "TestCountString, TestInjectorDeterministic; " + faultSurface,
	"fault.Injector.SetSink":                 faultSurface,
	"fault.Injector.Total":                   "TestInjectorBeforeRead; " + faultSurface,
	"device.Manager.SetFaultHook":            faultSurface,
	"netsim.Link.SetFaultHook":               faultSurface,
	"activities.VideoReader.SetRetry":        faultSurface,
	"activities.VideoReader.SetDropOnFault":  faultSurface,
	"activities.VideoReader.Retries":         "TestCrashRecoverDuringFaultedPlayback; " + faultSurface,
	"activities.VideoReader.FramesLost":      faultSurface,
	"activities.VideoWindow.CorruptedFrames": "TestChaosAblation; " + faultSurface,
	"activity.Connection.SetFailSoft":        faultSurface,

	// The frozen bench/ module's tests tick activities by hand with it.
	"activity.NewTickContext": "bench/bench_test.go ticks activities by hand; bench/ changes only in ROADMAP item 7's PRs",

	// ROADMAP item 10: DeleteObject must free an object's placed media
	// through it.
	"storage.Store.Delete": "ROADMAP item 10 (DeleteObject frees placements); TestDeleteFreesSpace",

	// Only their own tests call these; each goes with its tests.
	"avtime.TimecodeFromFrames":   "TestTimecodeRoundTrip, TestTimecodeString, TestPropTimecodeRoundTrip",
	"avtime.ParseTimecode":        "TestParseTimecode, TestTimecodeParseFormatProperty",
	"avtime.Timecode.WorldTime":   "TestTimecodeWorldTime",
	"media.VideoValue.Segment":    "TestVideoValueSegmentShares",
	"sched.Skew":                  "TestSkew, TestResyncReducesSkew",
	"temporal.Composite.ActiveAt": "TestCompositeActiveAt, TestPropActiveAtMatchesContainment",

	// Test oracles: the round-trip check the codec, synth, media, render
	// and activities tests compare values with, and the only way
	// TestMultiSourceSinkSealing can see that NewMultiSink enables sync.
	"media.VideoValue.Equal":            "the codec, synth, media, render and activities round-trip tests",
	"activity.Composite.SyncController": "TestMultiSourceSinkSealing checks that NewMultiSink enables sync",
}

// faultSurface is the reason the fault-injection surface stays.
const faultSurface = "TestEngineShardedChaosDeterminism, fault_recovery_test.go, isolation_test.go and experiment's chaos tests drive it; ROADMAP item 11"

// TestExportsHaveNonTestCallers type-checks every non-test package of the
// repository (the root, internal/, cmd/, examples/ and the bench/ module)
// and fails for each exported internal/ name that no non-test code uses,
// and for each allowlist entry that names nothing or now has a caller.
// A method counts as used when it is called, when it implements a method
// of an interface that is used (named, or one of its methods called), or
// when the standard library calls it by name (sort and heap methods,
// String, Error, Unwrap).
func TestExportsHaveNonTestCallers(t *testing.T) {
	unused, names := scanExports(t, ".")
	for _, name := range unused {
		if _, ok := exportAllowlist[name]; !ok {
			t.Errorf("%s has no non-test caller: delete it, or call it from an example", name)
		}
	}
	dead := make(map[string]bool, len(unused))
	for _, name := range unused {
		dead[name] = true
	}
	for name := range exportAllowlist {
		switch {
		case !names[name]:
			t.Errorf("allowlist entry %s names nothing: remove it", name)
		case !dead[name]:
			t.Errorf("allowlist entry %s now has a non-test caller: remove it", name)
		}
	}
}

// scanExports returns the exported internal/ names under root that no
// non-test code uses, sorted, and the set of every exported internal/
// name it saw.
func scanExports(t testing.TB, root string) ([]string, map[string]bool) {
	t.Helper()
	s := &exportScan{
		fset:  token.NewFileSet(),
		dirs:  make(map[string]string),
		pkgs:  make(map[string]*types.Package),
		std:   importer.Default(),
		uses:  make(map[*ast.Ident]types.Object),
		decls: make(map[types.Object]string),
	}
	if err := s.findPackages(root); err != nil {
		t.Fatal(err)
	}
	paths := make([]string, 0, len(s.dirs))
	for path := range s.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := s.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return s.unused(), s.names()
}

// exportScan type-checks the repository's packages from source, each
// once, sharing one Uses map so a use anywhere is visible.
type exportScan struct {
	fset  *token.FileSet
	dirs  map[string]string // import path -> directory
	pkgs  map[string]*types.Package
	std   types.Importer
	uses  map[*ast.Ident]types.Object
	decls map[types.Object]string // exported internal/ object -> name
}

// findPackages maps each directory holding Go files to its import path:
// "avdb" is the repository root, and the bench/ module is "avdb/bench".
func (s *exportScan) findPackages(root string) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		files, _ := filepath.Glob(filepath.Join(path, "*.go"))
		if len(files) == 0 {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		s.dirs[filepath.ToSlash(filepath.Join("avdb", rel))] = path
		return nil
	})
}

// Import type-checks a repository package from its non-test files and
// hands every other import to the standard library's importer.
func (s *exportScan) Import(path string) (*types.Package, error) {
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := s.dirs[path]
	if !ok {
		return s.std.Import(path)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	defs := make(map[*ast.Ident]types.Object)
	conf := types.Config{Importer: s}
	pkg, err := conf.Check(path, s.fset, files, &types.Info{Uses: s.uses, Defs: defs})
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = pkg
	if strings.HasPrefix(path, "avdb/internal/") {
		for id, obj := range defs {
			if obj != nil && id.IsExported() {
				if name := exportName(pkg, obj); name != "" {
					s.decls[obj] = name
				}
			}
		}
	}
	return pkg, nil
}

// exportName names a package-level object or a method as pkg.Name or
// pkg.Type.Method, and returns "" for anything else (fields, locals).
func exportName(pkg *types.Package, obj types.Object) string {
	if obj.Parent() == pkg.Scope() {
		return pkg.Name() + "." + obj.Name()
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	rt := recv.Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	if named, ok := rt.(*types.Named); ok {
		return pkg.Name() + "." + named.Obj().Name() + "." + obj.Name()
	}
	// A method declared in an interface type: find the interface's name.
	for _, n := range pkg.Scope().Names() {
		tn, ok := pkg.Scope().Lookup(n).(*types.TypeName)
		if !ok {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumExplicitMethods(); i++ {
				if iface.ExplicitMethod(i) == fn {
					return pkg.Name() + "." + n + "." + obj.Name()
				}
			}
		}
	}
	return ""
}

// stdlibMethods are method names the standard library calls through its
// own interfaces (sort, container/heap, fmt, errors).
var stdlibMethods = map[string]bool{
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"String": true, "Error": true, "Unwrap": true,
}

// unused returns the exported internal/ names with no use, sorted.
func (s *exportScan) unused() []string {
	used := make(map[types.Object]bool)
	for _, obj := range s.uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		used[obj] = true
	}
	// An interface is used when its name is, or when one of its methods
	// is called; every method that implements a used interface, promoted
	// from an embedded type or not, is used too.
	var ifaces []*types.Interface
	seen := make(map[*types.Interface]bool)
	for obj := range used {
		var typ types.Type
		switch obj := obj.(type) {
		case *types.TypeName:
			typ = obj.Type()
		case *types.Func:
			if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
				typ = recv.Type()
			}
		}
		if typ == nil {
			continue
		}
		if iface, ok := typ.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 && !seen[iface] {
			seen[iface] = true
			ifaces = append(ifaces, iface)
		}
	}
	for _, pkg := range s.pkgs {
		for _, n := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(n).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for _, iface := range ifaces {
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m := iface.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(ptr, false, m.Pkg(), m.Name()); obj != nil {
						used[obj.(*types.Func).Origin()] = true
					}
				}
			}
		}
	}
	var out []string
	for obj, name := range s.decls {
		if used[obj] {
			continue
		}
		if fn, ok := obj.(*types.Func); ok && stdlibMethods[fn.Name()] && fn.Type().(*types.Signature).Recv() != nil {
			continue
		}
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// names returns every exported internal/ name the scan saw.
func (s *exportScan) names() map[string]bool {
	out := make(map[string]bool, len(s.decls))
	for _, name := range s.decls {
		out[name] = true
	}
	return out
}
