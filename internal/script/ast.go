package script

// AST node types. Position info (line) is carried on nodes that can fail at
// runtime so errors point somewhere useful.

type node interface{ pos() (line, col int) }

type base struct{ line, col int }

func (b base) pos() (int, int) { return b.line, b.col }

// ---- statements ----

type program struct {
	base
	body  []node
	funcs []*funcDecl // the declarations in body, hoisted when it runs
}

type varDecl struct {
	base
	names []string
	inits []node // nil entries for bare declarations
}

type funcDecl struct {
	base
	name string
	fn   *funcLit
}

type exprStmt struct {
	base
	expr node
}

type ifStmt struct {
	base
	cond      node
	then, alt node // alt may be nil
}

type whileStmt struct {
	base
	cond node
	body node
	post bool // do-while
}

type forStmt struct {
	base
	init node // may be nil; varDecl or expression
	cond node // may be nil
	step node // may be nil
	body node
}

type forInStmt struct {
	base
	varName string
	declare bool // var k in ...
	obj     node
	body    node
}

type returnStmt struct {
	base
	value node // may be nil
}

type breakStmt struct{ base }

type continueStmt struct{ base }

type blockStmt struct {
	base
	body  []node
	funcs []*funcDecl // the declarations in body, hoisted when it runs
}

type switchStmt struct {
	base
	disc  node
	cases []switchCase
}

// switchCase is one case clause; test == nil is the default clause.
type switchCase struct {
	test node
	body []node
}

type throwStmt struct {
	base
	value node
}

type tryStmt struct {
	base
	block     *blockStmt
	catchVar  string
	catchBody *blockStmt // may be nil
	finally   *blockStmt // may be nil
}

// ---- expressions ----

type numberLit struct {
	base
	value value // the float64, boxed once by the parser
}

type stringLit struct {
	base
	value value // the string, boxed once by the parser
}

type boolLit struct {
	base
	value bool
}

type nullLit struct{ base }

type undefinedLit struct{ base }

type arrayLit struct {
	base
	elems []node
}

type objectLit struct {
	base
	keys   []string
	values []node
}

type funcLit struct {
	base
	name   string // for recursion via named function expressions
	params []string
	body   *blockStmt
	// What the parser saw in the body, nested functions excluded: how many
	// names a call may bind (the size its frame starts at), and whether
	// `arguments` is named, so only those calls build the array.
	nlocals  int
	usesArgs bool
}

type ident struct {
	base
	name string
}

type member struct {
	base
	obj  node
	name string
}

type index struct {
	base
	obj node
	key node
}

type call struct {
	base
	callee node
	args   []node
}

type unary struct {
	base
	op      string
	operand node
}

type postfix struct {
	base
	op      string // "++" or "--"
	operand node
}

type binary struct {
	base
	op          string
	left, right node
}

type logical struct {
	base
	op          string // "&&" or "||"
	left, right node
}

type assign struct {
	base
	op     string // "=", "+=", ...
	target node   // ident, member, or index
	value  node
}

type ternary struct {
	base
	cond, then, alt node
}
