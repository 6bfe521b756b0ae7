package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
)

// purityCheck guards chunk-order determinism: a function invoked from a
// parallel/stream worker pool (a `go` statement's closure, or a function
// value handed to a pool runner like runChunkPool) must not write
// package-level state. Workers execute chunks in whatever order the
// scheduler picks; a shared-state write makes the output — or worse, the
// compressed bytes — depend on that order, breaking the "same input,
// same archive" property the round-trip and fault-injection suites rely
// on. Writes to locals, parameters and by-index writes into a results
// slice the caller owns are fine; package-level variables are not.
//
// Worker roots are collected syntactically (go statements and func-typed
// arguments to pool-like callees), then expanded over the module call
// graph. Closure bodies are checked directly: a func literal handed to a
// pool runner (or launched by a go statement) is itself worker code, so
// its package-level writes are findings in their own right — attributed
// to the enclosing function, with the pool callee named as the root.
type purityCheck struct{}

func (purityCheck) Name() string { return "purity" }
func (purityCheck) Doc() string {
	return "flag package-level state writes in functions reachable from parallel/stream worker pools (chunk-order determinism)"
}

// purityPoolRe names the callees whose function-typed arguments run on a
// worker pool.
var purityPoolRe = regexp.MustCompile(`(?i)pool|parallel|worker`)

// purityClosureHit is one package-level write inside a worker closure.
type purityClosureHit struct {
	pos       token.Pos
	enclosing string // funcID of the function the literal appears in
	root      string // pool callee base name or "go statement"
	varName   string
}

// purityData is the module-wide analysis, built once.
type purityData struct {
	// workerOf maps each worker-reachable function to a witness root.
	workerOf map[string]string
	// closure holds the direct findings from worker func literals.
	closure []purityClosureHit
}

func (m *Module) purity() *purityData {
	m.purityOnce.Do(func() { m.pur = buildPurity(m) })
	return m.pur
}

func buildPurity(m *Module) *purityData {
	g := m.Graph()
	pd := &purityData{}
	rootSet := map[string]bool{}
	addCalleeRoots := func(pkg *Package, n ast.Node) {
		ast.Inspect(n, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := staticCallee(pkg.Info, call); fn != nil {
				rootSet[funcID(fn)] = true
			}
			return true
		})
	}
	addFuncValue := func(pkg *Package, enclosing, root string, e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.FuncLit:
			// The literal itself is worker code: its package-level
			// writes are findings, and its callees are worker roots.
			for _, w := range packageLevelWrites(pkg.Info, e.Body) {
				pd.closure = append(pd.closure, purityClosureHit{
					pos: w.pos, enclosing: enclosing, root: root, varName: w.name,
				})
			}
			addCalleeRoots(pkg, e.Body)
		case *ast.Ident:
			if fn, ok := pkg.Info.Uses[e].(*types.Func); ok {
				rootSet[funcID(fn)] = true
			}
		case *ast.SelectorExpr:
			if fn, ok := pkg.Info.Uses[e.Sel].(*types.Func); ok {
				rootSet[funcID(fn)] = true
			}
		}
	}
	scan := func(pkg *Package, enclosing string, body ast.Node) {
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				addFuncValue(pkg, enclosing, "go statement", n.Call.Fun)
			case *ast.CallExpr:
				if purityPoolRe.MatchString(calleeBaseName(n)) {
					for _, a := range n.Args {
						if isFuncValue(pkg.Info, a) {
							addFuncValue(pkg, enclosing, calleeBaseName(n), a)
						}
					}
				}
			}
			return true
		})
	}
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			if pkg.IsTestFile(file) {
				continue
			}
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					if fd.Body == nil {
						continue
					}
					enclosing := "package " + pkg.Pkg.Name()
					if def, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						enclosing = m.shortID(funcID(def))
					}
					scan(pkg, enclosing, fd.Body)
				} else {
					scan(pkg, "package "+pkg.Pkg.Name()+" init", d)
				}
			}
		}
	}

	roots := make([]string, 0, len(rootSet))
	for id := range rootSet {
		roots = append(roots, id)
	}
	sort.Strings(roots)

	// BFS with parent tracking so findings can name the worker root.
	workerOf := map[string]string{}
	queue := make([]string, 0, len(roots))
	for _, id := range roots {
		workerOf[id] = id
		queue = append(queue, id)
	}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		callees := append([]string(nil), g.edges[id]...)
		sort.Strings(callees)
		for _, to := range callees {
			if _, ok := workerOf[to]; !ok {
				workerOf[to] = workerOf[id]
				queue = append(queue, to)
			}
		}
	}
	pd.workerOf = workerOf
	return pd
}

// pkgWrite is one package-level variable write found in a node.
type pkgWrite struct {
	pos  token.Pos
	name string
}

// packageLevelWrites collects the package-level variable writes
// (assignments and ++/--) anywhere under n, nested literals included.
func packageLevelWrites(info *types.Info, n ast.Node) []pkgWrite {
	var out []pkgWrite
	ast.Inspect(n, func(x ast.Node) bool {
		var lhs []ast.Expr
		switch x := x.(type) {
		case *ast.AssignStmt:
			lhs = x.Lhs
		case *ast.IncDecStmt:
			lhs = []ast.Expr{x.X}
		default:
			return true
		}
		for _, l := range lhs {
			if v := rootWrittenVar(info, l); v != nil && isPackageLevel(v) {
				out = append(out, pkgWrite{pos: l.Pos(), name: v.Name()})
			}
		}
		return true
	})
	return out
}

// isFuncValue reports whether expression e has function type (and is not
// a call's own result being passed along as data).
func isFuncValue(info *types.Info, e ast.Expr) bool {
	t := typeOf(info, e)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Signature)
	return ok
}

func (purityCheck) Run(pkg *Package) []Finding {
	pd := pkg.Module.purity()
	var out []Finding
	for _, h := range pd.closure {
		if !pkg.ownsPos(h.pos) {
			continue
		}
		out = append(out, pkg.Module.newFinding("purity", h.pos,
			"func literal in %s runs on a worker pool (%s) but writes package-level %s; shared-state writes make output depend on chunk scheduling order",
			h.enclosing, h.root, h.varName))
	}
	forEachFuncDecl(pkg, func(f *ast.File, d *ast.FuncDecl) {
		if pkg.IsTestFile(f) {
			return
		}
		def, ok := pkg.Info.Defs[d.Name].(*types.Func)
		if !ok {
			return
		}
		root, isWorker := pd.workerOf[funcID(def)]
		if !isWorker {
			return
		}
		for _, w := range packageLevelWrites(pkg.Info, d.Body) {
			out = append(out, pkg.Module.newFinding("purity", w.pos,
				"%s runs on a worker pool (via %s) but writes package-level %s; shared-state writes make output depend on chunk scheduling order",
				pkg.Module.shortID(funcID(def)), pkg.Module.shortID(root), w.name))
		}
	})
	return out
}

// rootWrittenVar resolves an assignment target to the variable whose
// storage the write lands in: the base identifier of index/field/deref
// chains, or a package-qualified variable.
func rootWrittenVar(info *types.Info, l ast.Expr) *types.Var {
	for {
		switch e := ast.Unparen(l).(type) {
		case *ast.Ident:
			v, _ := objOf(info, e).(*types.Var)
			return v
		case *ast.SelectorExpr:
			// pkg.Var = ... writes the qualified package-level variable.
			if _, ok := objOf(info, e.Sel).(*types.Var); ok {
				if id, ok := ast.Unparen(e.X).(*ast.Ident); ok {
					if _, isPkg := objOf(info, id).(*types.PkgName); isPkg {
						v, _ := objOf(info, e.Sel).(*types.Var)
						return v
					}
				}
			}
			l = e.X
		case *ast.IndexExpr:
			l = e.X
		case *ast.SliceExpr:
			l = e.X
		case *ast.StarExpr:
			l = e.X
		default:
			return nil
		}
	}
}

// isPackageLevel reports whether v is a package-scope variable.
func isPackageLevel(v *types.Var) bool {
	return !v.IsField() && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}
