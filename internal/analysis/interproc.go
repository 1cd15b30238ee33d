package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FloatFlow and AllocFlow propagate the floatpurity and hotalloc
// invariants interprocedurally: a //iprune:hotpath function that *calls*
// a helper which (possibly transitively) performs float arithmetic or
// allocates has exactly the same problem as one that does so inline —
// the per-package analyzers just cannot see it, because the offending
// construct lives in another function or another package.
//
// Both passes share one machinery: a summary is computed for every
// function declaration in the module (does its own body use floats /
// allocate, ignoring sites blessed by allow-* directives; which
// module-internal functions does it statically call, and from inside a
// loop or not), the summaries are closed under the call graph to a
// fixpoint, and then every call edge leaving a hotpath function is
// checked against the callee's closure.
//
// Interface-method calls are devirtualized by class-hierarchy analysis
// restricted to interfaces *defined in this module*: the call fans out
// to every module type implementing the interface (obs.Tracer-shaped
// dispatch, including single-implementation interfaces), each edge
// labeled with the interface method it came from. Interfaces with more
// than devirtMaxImpls module implementations — wide plug-in surfaces
// like nn.Layer — and stdlib interfaces (io.Writer) are skipped: there
// the analysis stays deliberately under-approximate rather than noisy.
//
// A function carrying a func-level allow-float / allow-alloc blessing
// is an audited boundary: its own sites are exempt *and* its callees'
// sites do not propagate through it. Without that rule, devirtualizing
// a blessed wrapper (obs.EnergyClock.Emit) would re-surface everything
// behind it at every hot call site the blessing already vouched for.
//
// FloatFlow reports ANY call from a hotpath function to a float-reaching
// callee, but only inside the fixed-point kernel packages (floatpurity's
// scope): elsewhere in the module, float use is legitimate. AllocFlow
// reports only calls made from inside a loop (matching hotalloc's
// depth rule — a once-per-invocation allocation is amortized) and
// applies module-wide.

// FloatFlow propagates the fixed-point purity invariant over the call
// graph. Suppress at the call site with //iprune:allow-float <reason>.
var FloatFlow = &Analyzer{
	Name:      "floatflow",
	Doc:       "no calls from fixed-point hot paths to float-using functions (interprocedural)",
	Allow:     "allow-float",
	Scope:     FloatPurity.Scope,
	RunModule: runFloatFlow,
}

// AllocFlow propagates the hot-loop allocation invariant over the call
// graph. Suppress at the call site with //iprune:allow-alloc <reason>.
var AllocFlow = &Analyzer{
	Name:      "allocflow",
	Doc:       "no calls from hot-path loops to allocating functions (interprocedural)",
	Allow:     "allow-alloc",
	Scope:     func(path string) bool { return true },
	RunModule: runAllocFlow,
}

// devirtMaxImpls caps the fan-out of one devirtualized interface call:
// an interface with more module implementations than this is treated as
// an open plug-in surface and its calls stay unresolved.
const devirtMaxImpls = 6

// callEdge is one call site inside a summarized function; via is the
// interface method the edge was devirtualized from (nil for a static
// call).
type callEdge struct {
	callee *types.Func
	pos    token.Pos
	inLoop bool
	via    *types.Func
}

// ifaceCall is one interface-method call site awaiting devirtualization.
type ifaceCall struct {
	method *types.Func
	pos    token.Pos
	inLoop bool
}

// funcSummary is what the fixpoint knows about one function declaration.
type funcSummary struct {
	fn   *types.Func
	pkg  *Package
	decl *ast.FuncDecl

	selfFloat    token.Pos // first unsuppressed float site, or NoPos
	selfAlloc    token.Pos // first unsuppressed allocation site, or NoPos
	blessedFloat bool      // func-level allow-float: audited boundary
	blessedAlloc bool      // func-level allow-alloc: audited boundary
	edges        []callEdge
	ifaceCalls   []ifaceCall

	// Fixpoint results: the witness site and the call chain (excluding
	// this function) leading to it. floatSite/allocSite == NoPos means
	// unreachable.
	floatSite token.Pos
	floatPath []*types.Func
	allocSite token.Pos
	allocPath []*types.Func
}

// summarize builds and closes the summaries for every function
// declaration across the module's packages.
func summarize(mp *ModulePass) ([]*funcSummary, map[*types.Func]*funcSummary) {
	var order []*funcSummary
	index := map[*types.Func]*funcSummary{}
	for _, pkg := range mp.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				s := &funcSummary{fn: fn, pkg: pkg, decl: fd}
				s.build(mp.Dirs)
				order = append(order, s)
				index[fn] = s
			}
		}
	}
	devirtualize(mp, order, index)
	propagate(order, index)
	return order, index
}

// devirtualizer resolves interface-method calls to the module types
// implementing them via class-hierarchy analysis (see the package
// comment for the scoping rules). It is shared by the interprocedural
// flow passes and the regionbudget analyzer so every pass prices the
// same devirtualized call graph.
type devirtualizer struct {
	pkgs       []*Package
	modulePkgs map[*types.Package]bool
	hasBody    func(*types.Func) bool
	memo       map[*types.Func][]*types.Func
}

// newDevirtualizer builds a resolver over the module's packages; hasBody
// filters out implementations (promoted methods, externals) the caller
// has no summary for.
func newDevirtualizer(pkgs []*Package, hasBody func(*types.Func) bool) *devirtualizer {
	modulePkgs := make(map[*types.Package]bool, len(pkgs))
	for _, pkg := range pkgs {
		if pkg.Types != nil {
			modulePkgs[pkg.Types] = true
		}
	}
	return &devirtualizer{
		pkgs:       pkgs,
		modulePkgs: modulePkgs,
		hasBody:    hasBody,
		memo:       map[*types.Func][]*types.Func{},
	}
}

// resolve returns the module implementations of one interface method, or
// nil when the call must stay unresolved (non-module interface, or a
// plug-in surface wider than devirtMaxImpls).
func (dv *devirtualizer) resolve(m *types.Func) []*types.Func {
	if impls, ok := dv.memo[m]; ok {
		return impls
	}
	dv.memo[m] = nil
	sig, ok := m.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	named, _ := sig.Recv().Type().(*types.Named)
	if named == nil || named.Obj().Pkg() == nil || !dv.modulePkgs[named.Obj().Pkg()] {
		return nil // anonymous or non-module interface: stay conservative
	}
	iface, ok := named.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	var impls []*types.Func
	seen := map[*types.Func]bool{}
	for _, pkg := range dv.pkgs {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			T := tn.Type()
			if types.IsInterface(T) {
				continue
			}
			var recv types.Type
			switch {
			case types.Implements(T, iface):
				recv = T
			case types.Implements(types.NewPointer(T), iface):
				recv = types.NewPointer(T)
			default:
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(recv, true, tn.Pkg(), m.Name())
			fn, ok := obj.(*types.Func)
			if !ok || seen[fn] {
				continue
			}
			if !dv.hasBody(fn) {
				continue // promoted from outside the module: no summary
			}
			seen[fn] = true
			impls = append(impls, fn)
		}
	}
	if len(impls) > devirtMaxImpls {
		impls = nil // open plug-in surface: leave unresolved
	}
	dv.memo[m] = impls
	return impls
}

// devirtualize resolves the recorded interface-method call sites into
// concrete call edges.
func devirtualize(mp *ModulePass, order []*funcSummary, index map[*types.Func]*funcSummary) {
	dv := newDevirtualizer(mp.Pkgs, func(fn *types.Func) bool {
		_, ok := index[fn]
		return ok
	})
	for _, s := range order {
		for _, ic := range s.ifaceCalls {
			for _, impl := range dv.resolve(ic.method) {
				s.edges = append(s.edges, callEdge{callee: impl, pos: ic.pos, inLoop: ic.inLoop, via: ic.method})
			}
		}
	}
}

// build walks one function body collecting unsuppressed float and
// allocation sites and all static module-internal call edges. Function
// literals fold into the enclosing declaration (they inherit its
// directives and run in its frame); loop depth carries into them, since
// a closure created in a loop runs at least as often as the loop body.
func (s *funcSummary) build(dirs *Directives) {
	pkg := s.pkg
	info := pkg.Info
	s.blessedFloat = dirs.ObjHas(s.fn, "allow-float")
	s.blessedAlloc = dirs.ObjHas(s.fn, "allow-alloc")
	blessedFloat, blessedAlloc := s.blessedFloat, s.blessedAlloc
	suppressed := func(pos token.Pos, allow string) bool {
		p := pkg.Fset.Position(pos)
		return dirs.FileHas(p.Filename, allow) ||
			dirs.LineHas(p.Filename, p.Line, allow) ||
			dirs.LineHas(p.Filename, p.Line-1, allow)
	}
	noteFloat := func(pos token.Pos) {
		if s.selfFloat == token.NoPos && !blessedFloat && !suppressed(pos, "allow-float") {
			s.selfFloat = pos
		}
	}
	noteAlloc := func(pos token.Pos) {
		if s.selfAlloc == token.NoPos && !blessedAlloc && !suppressed(pos, "allow-alloc") {
			s.selfAlloc = pos
		}
	}
	isFloat := func(e ast.Expr) bool { return isFloatType(info.Types[e].Type) }

	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		ast.Inspect(n, func(node ast.Node) bool {
			switch node := node.(type) {
			case *ast.ForStmt:
				if node.Init != nil {
					walk(node.Init, depth)
				}
				if node.Cond != nil {
					walk(node.Cond, depth)
				}
				if node.Post != nil {
					walk(node.Post, depth)
				}
				walk(node.Body, depth+1)
				return false
			case *ast.RangeStmt:
				if node.X != nil {
					walk(node.X, depth)
				}
				walk(node.Body, depth+1)
				return false
			case *ast.FuncLit:
				noteAlloc(node.Pos()) // the closure value itself allocates
				walk(node.Body, depth)
				return false
			case *ast.BinaryExpr:
				if arithmeticOp(node.Op) && (isFloat(node.X) || isFloat(node.Y)) {
					noteFloat(node.OpPos)
				}
			case *ast.UnaryExpr:
				if (node.Op == token.SUB || node.Op == token.ADD) && isFloat(node.X) {
					noteFloat(node.OpPos)
				}
			case *ast.AssignStmt:
				if arithmeticAssign(node.Tok) {
					for _, lhs := range node.Lhs {
						if isFloat(lhs) {
							noteFloat(node.TokPos)
							break
						}
					}
				}
			case *ast.CompositeLit:
				if t := info.Types[node].Type; t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						noteAlloc(node.Pos())
					}
				}
			case *ast.CallExpr:
				if tv, ok := info.Types[node.Fun]; ok && tv.IsType() {
					if isFloatType(tv.Type) && len(node.Args) == 1 {
						noteFloat(node.Lparen)
					}
					return true // conversion, not a call
				}
				if id, ok := node.Fun.(*ast.Ident); ok {
					if b, ok := info.Uses[id].(*types.Builtin); ok {
						switch b.Name() {
						case "make", "new", "append":
							noteAlloc(node.Pos())
						}
						return true
					}
				}
				if callee := staticCallee(info, node); callee != nil {
					if interfaceMethod(callee) {
						s.ifaceCalls = append(s.ifaceCalls, ifaceCall{method: callee, pos: node.Pos(), inLoop: depth > 0})
					} else {
						s.edges = append(s.edges, callEdge{callee: callee, pos: node.Pos(), inLoop: depth > 0})
					}
				}
			}
			return true
		})
	}
	walk(s.decl.Body, 0)
}

// interfaceMethod reports whether fn is declared on an interface type —
// a call through it has no static callee.
func interfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	_, isIface := sig.Recv().Type().Underlying().(*types.Interface)
	return isIface
}

// propagate closes the summaries under the call graph: a function
// reaches a float/alloc site if its own body has one, or any summarized
// callee reaches one — except through a func-level allow-* blessing,
// which marks an audited boundary that callers need not see past.
// Iteration order is fixed so witness chains are deterministic.
func propagate(order []*funcSummary, index map[*types.Func]*funcSummary) {
	for _, s := range order {
		s.floatSite, s.allocSite = s.selfFloat, s.selfAlloc
	}
	for changed := true; changed; {
		changed = false
		for _, s := range order {
			for _, e := range s.edges {
				c, ok := index[e.callee]
				if !ok {
					continue
				}
				if !s.blessedFloat && s.floatSite == token.NoPos && c.floatSite != token.NoPos {
					s.floatSite = c.floatSite
					s.floatPath = append([]*types.Func{c.fn}, c.floatPath...)
					changed = true
				}
				if !s.blessedAlloc && s.allocSite == token.NoPos && c.allocSite != token.NoPos {
					s.allocSite = c.allocSite
					s.allocPath = append([]*types.Func{c.fn}, c.allocPath...)
					changed = true
				}
			}
		}
	}
}

func runFloatFlow(mp *ModulePass) {
	order, index := summarize(mp)
	for _, s := range order {
		if !mp.Dirs.ObjHas(s.fn, "hotpath") {
			continue
		}
		pass := mp.Pass(s.pkg)
		for _, e := range s.edges {
			c, ok := index[e.callee]
			if !ok || c.floatSite == token.NoPos {
				continue
			}
			pass.Reportf(e.pos, "fixed-point hot path calls %s, which %s float arithmetic at %s",
				edgeName(e, c), reachVerb(c.floatPath), s.pkg.Fset.Position(c.floatSite))
		}
	}
}

func runAllocFlow(mp *ModulePass) {
	order, index := summarize(mp)
	for _, s := range order {
		if !mp.Dirs.ObjHas(s.fn, "hotpath") {
			continue
		}
		pass := mp.Pass(s.pkg)
		for _, e := range s.edges {
			if !e.inLoop {
				continue // once-per-invocation calls are amortized
			}
			c, ok := index[e.callee]
			if !ok || c.allocSite == token.NoPos {
				continue
			}
			pass.Reportf(e.pos, "hot loop calls %s, which %s an allocation at %s",
				edgeName(e, c), reachVerb(c.allocPath), s.pkg.Fset.Position(c.allocSite))
		}
	}
}

// edgeName renders the callee of one edge, noting the interface method
// a devirtualized edge came from.
func edgeName(e callEdge, c *funcSummary) string {
	name := funcName(c.fn)
	if e.via != nil {
		name += " (devirtualized from " + funcName(e.via) + ")"
	}
	return name
}

// reachVerb phrases how the callee reaches the witness site: directly,
// or through a chain of further calls.
func reachVerb(path []*types.Func) string {
	if len(path) == 0 {
		return "performs"
	}
	names := make([]string, len(path))
	for i, fn := range path {
		names[i] = funcName(fn)
	}
	return "reaches (via " + strings.Join(names, " -> ") + ")"
}

// funcName renders a function or method with its receiver type.
func funcName(fn *types.Func) string {
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	return fn.Name()
}
