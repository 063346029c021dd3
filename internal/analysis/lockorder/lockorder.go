// Package lockorder enforces the buffer-pool lock-ordering rule
// documented on blockio.BufferPool:
//
//   - allocation-path device calls (Alloc, Close) must run with
//     no shard lock held;
//   - data-path device calls (Read, Write) may run under at most one
//     held lock (the pool is stricter than this check requires: its
//     misses call Read with no lock held, and only Write runs under a
//     shard lock);
//   - no function may hold two locks of the same class (for example
//     two poolShard mutexes) at once.
//
// It also enforces declared lock ranks: a mutex struct field annotated
//
//	mu sync.Mutex //tr:lockrank N
//
// joins rank class N, and no function may acquire a ranked lock while
// holding another ranked lock of equal or higher rank — ranks must
// strictly increase along any acquisition chain (in this module,
// memtable's generation-swap lock ranks below each table's writer
// mutex).
//
// The analyzer self-scopes: it only inspects packages that declare a
// Device interface with the Read/Write/Alloc/Close method set
// (in this module, internal/blockio) or at least one //tr:lockrank
// annotation (internal/memtable), and it skips _test.go files —
// the invariant governs engine code, not test scaffolding. "Device
// call" means a call whose receiver's static type implements that
// interface. Held locks are tracked per function over sync.Mutex and
// sync.RWMutex values, conservatively: branches merge by union, a
// branch ending in return/break/continue is discarded, and a deferred
// Unlock keeps its lock held to the end of the function. Calls to
// same-package functions are checked against a transitive summary of
// the callee (locks it may acquire, allocation-path device calls it
// may reach), so a violation hidden one call deep is still reported.
package lockorder

import (
	"go/ast"
	"go/types"
	"strconv"
	"strings"

	"temporalrank/internal/analysis"
)

// Analyzer is the lockorder analysis.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc:  "check blockio's shard-lock/device-call ordering rule and //tr:lockrank acquisition order",
	Run:  run,
}

var allocPath = map[string]bool{"Alloc": true, "Close": true}
var dataPath = map[string]bool{"Read": true, "Write": true}

// summary is what a package function may do, transitively.
type summary struct {
	// alloc is a witness chain ("f → dev.Alloc") when the function may
	// reach an allocation-path device call.
	alloc string
	// locks maps lock classes the function may acquire to a witness
	// expression.
	locks map[string]string
	// callees are same-package functions called directly.
	callees []*types.Func
}

type checker struct {
	pass      *analysis.Pass
	iface     *types.Interface // nil in rank-only packages
	ranks     map[string]int   // lock class -> declared //tr:lockrank
	summaries map[*types.Func]*summary
	decls     map[*types.Func]*ast.FuncDecl
}

func run(pass *analysis.Pass) (any, error) {
	iface := deviceInterface(pass.Pkg)
	ranks := collectRanks(pass)
	if iface == nil && len(ranks) == 0 {
		return nil, nil
	}
	c := &checker{
		pass:      pass,
		iface:     iface,
		ranks:     ranks,
		summaries: make(map[*types.Func]*summary),
		decls:     make(map[*types.Func]*ast.FuncDecl),
	}
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		if c.testFile(f) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					c.decls[obj] = fd
					decls = append(decls, fd)
				}
			}
		}
	}
	c.buildSummaries()
	for _, fd := range decls {
		c.checkFunc(fd)
	}
	return nil, nil
}

func (c *checker) testFile(f *ast.File) bool {
	return strings.HasSuffix(c.pass.Fset.Position(f.Pos()).Filename, "_test.go")
}

// deviceInterface returns the package's Device interface when it has
// the full Read/Write/Alloc/Close method set, else nil.
func deviceInterface(pkg *types.Package) *types.Interface {
	obj, ok := pkg.Scope().Lookup("Device").(*types.TypeName)
	if !ok {
		return nil
	}
	iface, ok := obj.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	for name := range allocPath {
		if !hasMethod(iface, name) {
			return nil
		}
	}
	for name := range dataPath {
		if !hasMethod(iface, name) {
			return nil
		}
	}
	return iface
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// collectRanks gathers //tr:lockrank annotations from mutex struct
// fields (non-test files), keyed by the same lock class lockClass
// assigns to acquisitions of that field.
func collectRanks(pass *analysis.Pass) map[string]int {
	ranks := make(map[string]int)
	for _, f := range pass.Files {
		if strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				owner := stripTypeArgs(types.TypeString(obj.Type(), nil))
				for _, field := range st.Fields.List {
					tv, ok := pass.TypesInfo.Types[field.Type]
					if !ok || !isMutex(tv.Type) {
						continue
					}
					rank, ok := lockrankComment(field)
					if !ok {
						continue
					}
					for _, name := range field.Names {
						ranks[owner+"."+name.Name] = rank
					}
				}
			}
		}
	}
	return ranks
}

// lockrankComment parses a field's //tr:lockrank N line or doc comment.
func lockrankComment(field *ast.Field) (int, bool) {
	for _, cg := range []*ast.CommentGroup{field.Comment, field.Doc} {
		if cg == nil {
			continue
		}
		for _, cm := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(cm.Text, "//"))
			rest, ok := strings.CutPrefix(text, "tr:lockrank")
			if !ok {
				continue
			}
			rank, err := strconv.Atoi(strings.TrimSpace(rest))
			if err != nil {
				continue
			}
			return rank, true
		}
	}
	return 0, false
}

// stripTypeArgs drops a generic type's argument list so that ranks
// declared on a parameterized struct match acquisitions from any
// instantiation (and from methods that rename the type parameters).
func stripTypeArgs(s string) string {
	if i := strings.IndexByte(s, '['); i >= 0 && strings.HasSuffix(s, "]") {
		return s[:i]
	}
	return s
}

// deviceCall classifies call as a device method call. kind is "alloc"
// or "data".
func (c *checker) deviceCall(call *ast.CallExpr) (kind, desc string, ok bool) {
	if c.iface == nil {
		return "", "", false
	}
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	name := sel.Sel.Name
	if !allocPath[name] && !dataPath[name] {
		return "", "", false
	}
	selection, okSel := c.pass.TypesInfo.Selections[sel]
	if !okSel || selection.Kind() != types.MethodVal {
		return "", "", false
	}
	recv := selection.Recv()
	if !types.Implements(recv, c.iface) && !types.Implements(types.NewPointer(recv), c.iface) {
		return "", "", false
	}
	kind = "data"
	if allocPath[name] {
		kind = "alloc"
	}
	return kind, types.ExprString(sel), true
}

// lockOp classifies call as a mutex operation: op is "lock" or
// "unlock", key identifies the mutex expression, class its lock class
// (owner type and field for selector-rooted locks).
func (c *checker) lockOp(call *ast.CallExpr) (op, key, class string, ok bool) {
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		op = "lock"
	case "Unlock", "RUnlock":
		op = "unlock"
	default:
		return "", "", "", false
	}
	tv, okType := c.pass.TypesInfo.Types[sel.X]
	if !okType || !isMutex(tv.Type) {
		return "", "", "", false
	}
	key = types.ExprString(sel.X)
	class = lockClass(c.pass, sel.X)
	return op, key, class, true
}

func isMutex(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// lockClass names the "kind" of lock an expression denotes: for a
// field selector like sh.mu it is the owner type plus field name (so
// two different poolShard values' mu fields share a class); for a
// plain variable it is the variable's type.
func lockClass(pass *analysis.Pass, x ast.Expr) string {
	if sel, ok := x.(*ast.SelectorExpr); ok {
		if tv, ok := pass.TypesInfo.Types[sel.X]; ok {
			t := tv.Type
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			return stripTypeArgs(types.TypeString(t, nil)) + "." + sel.Sel.Name
		}
	}
	if tv, ok := pass.TypesInfo.Types[x]; ok {
		return "var " + types.TypeString(tv.Type, nil)
	}
	return "var"
}

// staticCallee resolves a call to a same-package function with a body.
func (c *checker) staticCallee(call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = c.pass.TypesInfo.Uses[fun]
	case *ast.SelectorExpr:
		if selection, ok := c.pass.TypesInfo.Selections[fun]; ok && selection.Kind() == types.MethodVal {
			obj = selection.Obj()
		} else {
			obj = c.pass.TypesInfo.Uses[fun.Sel]
		}
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() != c.pass.Pkg {
		return nil
	}
	if _, ok := c.decls[fn]; !ok {
		return nil
	}
	return fn
}

// buildSummaries computes, to a fixed point, which lock classes and
// allocation-path device calls each package function may reach.
// Function literals are excluded: a literal generally runs on another
// goroutine or after the enclosing frame's locks are released, and
// including them would flag the legal deferred-unlock pattern.
func (c *checker) buildSummaries() {
	for fn, fd := range c.decls {
		s := &summary{locks: make(map[string]string)}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if kind, desc, ok := c.deviceCall(call); ok && kind == "alloc" {
				s.alloc = desc
			}
			if op, key, class, ok := c.lockOp(call); ok && op == "lock" {
				s.locks[class] = key
			}
			if callee := c.staticCallee(call); callee != nil {
				s.callees = append(s.callees, callee)
			}
			return true
		})
		c.summaries[fn] = s
	}
	for changed := true; changed; {
		changed = false
		for fn, s := range c.summaries {
			for _, callee := range s.callees {
				cs := c.summaries[callee]
				if cs == nil {
					continue
				}
				if s.alloc == "" && cs.alloc != "" {
					s.alloc = callee.Name() + " → " + cs.alloc
					changed = true
				}
				for class, key := range cs.locks {
					if _, ok := s.locks[class]; !ok {
						s.locks[class] = key
						changed = true
					}
				}
			}
			c.summaries[fn] = s
		}
	}
}

// state is the set of locks held at a program point.
type state struct {
	held       map[string]string // key -> class
	terminated bool
}

func newState() *state { return &state{held: make(map[string]string)} }

func (s *state) clone() *state {
	n := newState()
	for k, v := range s.held {
		n.held[k] = v
	}
	n.terminated = s.terminated
	return n
}

// merge replaces s with the union of the non-terminated branch
// states; s terminates only when every branch did.
func (s *state) merge(branches ...*state) {
	allDone := true
	union := make(map[string]string)
	for _, b := range branches {
		if b.terminated {
			continue
		}
		allDone = false
		for k, v := range b.held {
			union[k] = v
		}
	}
	s.held = union
	s.terminated = allDone
}

func (s *state) anyHeld() (key string, ok bool) {
	for k := range s.held {
		return k, true
	}
	return "", false
}

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	st := newState()
	c.walkStmt(fd.Body, st)
}

func (c *checker) walkStmt(stmt ast.Stmt, st *state) {
	if stmt == nil || st.terminated {
		return
	}
	switch s := stmt.(type) {
	case *ast.BlockStmt:
		for _, inner := range s.List {
			if st.terminated {
				return
			}
			c.walkStmt(inner, st)
		}
	case *ast.ExprStmt:
		c.walkExpr(s.X, st)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.walkExpr(e, st)
		}
		for _, e := range s.Lhs {
			c.walkExpr(e, st)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						c.walkExpr(e, st)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		c.walkExpr(s.X, st)
	case *ast.SendStmt:
		c.walkExpr(s.Chan, st)
		c.walkExpr(s.Value, st)
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			c.walkExpr(e, st)
		}
		st.terminated = true
	case *ast.BranchStmt:
		st.terminated = true
	case *ast.LabeledStmt:
		c.walkStmt(s.Stmt, st)
	case *ast.IfStmt:
		c.walkStmt(s.Init, st)
		c.walkExpr(s.Cond, st)
		then := st.clone()
		c.walkStmt(s.Body, then)
		alt := st.clone()
		if s.Else != nil {
			c.walkStmt(s.Else, alt)
		}
		st.merge(then, alt)
	case *ast.ForStmt:
		c.walkStmt(s.Init, st)
		c.walkExpr(s.Cond, st)
		body := st.clone()
		c.walkStmt(s.Body, body)
		c.walkStmt(s.Post, body)
		// The body may run zero times; break/return inside it discards
		// its end state, so the pre-loop state always survives.
		st.merge(st.clone(), body)
	case *ast.RangeStmt:
		c.walkExpr(s.X, st)
		body := st.clone()
		c.walkStmt(s.Body, body)
		st.merge(st.clone(), body)
	case *ast.SwitchStmt:
		c.walkStmt(s.Init, st)
		c.walkExpr(s.Tag, st)
		c.walkCases(s.Body, st)
	case *ast.TypeSwitchStmt:
		c.walkStmt(s.Init, st)
		c.walkCases(s.Body, st)
	case *ast.SelectStmt:
		c.walkCases(s.Body, st)
	case *ast.DeferStmt:
		c.walkDefer(s.Call, st)
	case *ast.GoStmt:
		// The spawned goroutine starts with no locks of this frame held.
		if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
			c.walkStmt(lit.Body, newState())
		}
		for _, arg := range s.Call.Args {
			c.walkExpr(arg, st)
		}
	}
}

// walkCases walks a switch/select body: each clause runs from the
// same entry state and the results merge.
func (c *checker) walkCases(body *ast.BlockStmt, st *state) {
	branches := []*state{st.clone()} // the no-clause-taken path
	for _, clause := range body.List {
		b := st.clone()
		switch cl := clause.(type) {
		case *ast.CaseClause:
			for _, e := range cl.List {
				c.walkExpr(e, b)
			}
			for _, inner := range cl.Body {
				if b.terminated {
					break
				}
				c.walkStmt(inner, b)
			}
		case *ast.CommClause:
			c.walkStmt(cl.Comm, b)
			for _, inner := range cl.Body {
				if b.terminated {
					break
				}
				c.walkStmt(inner, b)
			}
		}
		branches = append(branches, b)
	}
	st.merge(branches...)
}

// walkDefer handles a deferred call: a deferred Unlock keeps the lock
// held to function exit (so nothing is removed from the state), and
// any other deferred work is checked against the current held set.
func (c *checker) walkDefer(call *ast.CallExpr, st *state) {
	if op, _, _, ok := c.lockOp(call); ok && op == "unlock" {
		return
	}
	if _, ok := call.Fun.(*ast.FuncLit); ok {
		// Commonly the unlock-at-exit loop; its Unlocks run at exit, so
		// there is nothing to check here and nothing to release now.
		return
	}
	c.checkCall(call, st)
}

// walkExpr visits every call inside e in evaluation order, updating
// the held set as locks are taken and released.
func (c *checker) walkExpr(e ast.Expr, st *state) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Not invoked here (an immediately-invoked literal is the
			// CallExpr case below): it runs in an unknown context, so
			// check its body against an empty held set.
			c.walkStmt(n.Body, newState())
			return false
		case *ast.CallExpr:
			if lit, ok := n.Fun.(*ast.FuncLit); ok {
				// Immediately-invoked literal: runs right here, with the
				// current locks held.
				for _, arg := range n.Args {
					c.walkExpr(arg, st)
				}
				c.walkStmt(lit.Body, st)
				return false
			}
			c.checkCall(n, st)
		}
		return true
	})
}

// checkCall applies the ordering rules to one call at one state.
func (c *checker) checkCall(call *ast.CallExpr, st *state) {
	if op, key, class, ok := c.lockOp(call); ok {
		if op == "unlock" {
			delete(st.held, key)
			return
		}
		for heldKey, heldClass := range st.held {
			if heldClass == class {
				c.pass.Reportf(call.Pos(),
					"acquiring %s while %s is already held: no function may hold two %s locks at once",
					key, heldKey, class)
				continue
			}
			if rank, heldRank, ok := c.rankPair(class, heldClass); ok && heldRank >= rank {
				c.pass.Reportf(call.Pos(),
					"acquiring %s (rank %d) while %s (rank %d) is held: locks must be acquired in increasing //tr:lockrank order",
					key, rank, heldKey, heldRank)
			}
		}
		st.held[key] = class
		return
	}
	if kind, desc, ok := c.deviceCall(call); ok {
		heldKey, anyHeld := st.anyHeld()
		switch {
		case kind == "alloc" && anyHeld:
			c.pass.Reportf(call.Pos(),
				"allocation-path device call %s while lock %s is held: Alloc/Close must run with no shard lock held",
				desc, heldKey)
		case kind == "data" && len(st.held) > 1:
			c.pass.Reportf(call.Pos(),
				"data-path device call %s while %d locks are held: Read/Write may run under at most one shard lock",
				desc, len(st.held))
		}
		return
	}
	if callee := c.staticCallee(call); callee != nil {
		s := c.summaries[callee]
		heldKey, anyHeld := st.anyHeld()
		if s == nil || !anyHeld {
			return
		}
		if s.alloc != "" {
			c.pass.Reportf(call.Pos(),
				"call to %s, which reaches allocation-path device call %s, while lock %s is held",
				callee.Name(), s.alloc, heldKey)
		}
		for class, witness := range s.locks {
			for heldKey, heldClass := range st.held {
				if heldClass == class {
					c.pass.Reportf(call.Pos(),
						"call to %s, which acquires %s lock %s, while %s is already held",
						callee.Name(), class, witness, heldKey)
					continue
				}
				if rank, heldRank, ok := c.rankPair(class, heldClass); ok && heldRank >= rank {
					c.pass.Reportf(call.Pos(),
						"call to %s, which acquires rank-%d lock %s, while %s (rank %d) is held: locks must be acquired in increasing //tr:lockrank order",
						callee.Name(), rank, witness, heldKey, heldRank)
				}
			}
		}
	}
}

// rankPair returns both classes' declared ranks when each has one.
func (c *checker) rankPair(class, heldClass string) (rank, heldRank int, ok bool) {
	rank, ok = c.ranks[class]
	if !ok {
		return 0, 0, false
	}
	heldRank, ok = c.ranks[heldClass]
	return rank, heldRank, ok
}
