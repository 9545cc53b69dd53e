package minic

import "fmt"

// Parser builds an AST from MiniC source. It pulls tokens from a
// Lexer through a two-token window, the current token and the one
// after it: the grammar needs no more lookahead than that (a cast is
// told from a parenthesized expression by the token after the paren),
// and the parser never backtracks, so no token slice is built.
type Parser struct {
	file string
	lex  *Lexer
	tok  [2]Token // cur, then peek
	err  error    // first lexical error; the window holds EOF from then on
}

// Parse parses one MiniC source file. A lexical error anywhere in src
// is reported ahead of any parse error, as if the whole file were
// lexed first.
func Parse(file, src string) (*File, error) {
	p := newParser(file, src)
	f, err := p.parseFile()
	if err != nil && p.err == nil {
		p.drain()
	}
	if p.err != nil {
		return nil, p.err
	}
	return f, err
}

func newParser(file, src string) *Parser {
	p := &Parser{file: file, lex: NewLexer(file, src)}
	p.tok[0] = p.pull()
	p.tok[1] = p.pull()
	return p
}

// pull returns the lexer's next token, or EOF once it has failed.
func (p *Parser) pull() Token {
	if p.err != nil {
		return Token{Kind: EOF, Line: p.lex.line}
	}
	t, err := p.lex.Next()
	if err != nil {
		p.err = err
		return Token{Kind: EOF, Line: p.lex.line}
	}
	return t
}

// drain lexes the rest of the source, recording its first lexical
// error if it has one.
func (p *Parser) drain() {
	for p.err == nil {
		if p.pull().Kind == EOF {
			return
		}
	}
}

func (p *Parser) cur() Token  { return p.tok[0] }
func (p *Parser) peek() Token { return p.tok[1] }

// next consumes and returns the current token. EOF is never consumed.
func (p *Parser) next() Token {
	t := p.tok[0]
	if t.Kind != EOF {
		p.tok[0] = p.tok[1]
		p.tok[1] = p.pull()
	}
	return t
}

func (p *Parser) errf(format string, args ...any) error {
	return &SyntaxError{File: p.file, Line: p.cur().Line, Msg: fmt.Sprintf(format, args...)}
}

func (p *Parser) expect(k Kind) (Token, error) {
	if p.cur().Kind != k {
		return Token{}, p.errf("expected %s, found %s", k, p.cur())
	}
	return p.next(), nil
}

func (p *Parser) accept(k Kind) bool {
	if p.cur().Kind == k {
		p.next()
		return true
	}
	return false
}

func isTypeKw(k Kind) bool {
	return k == KwInt || k == KwChar || k == KwDouble || k == KwVoid
}

func baseOf(k Kind) BaseType {
	switch k {
	case KwInt:
		return TypeInt
	case KwChar:
		return TypeChar
	case KwDouble:
		return TypeDouble
	default:
		return TypeVoid
	}
}

func (p *Parser) parseFile() (*File, error) {
	f := &File{Name: p.file}
	for p.cur().Kind != EOF {
		if !isTypeKw(p.cur().Kind) {
			return nil, p.errf("expected declaration, found %s", p.cur())
		}
		base := baseOf(p.next().Kind)
		// Optional * makes no sense at file scope (no pointer
		// globals), so only functions and variables here.
		nameTok, err := p.expect(IDENT)
		if err != nil {
			return nil, err
		}
		if p.cur().Kind == LParen {
			fn, err := p.parseFuncRest(base, nameTok)
			if err != nil {
				return nil, err
			}
			f.Funcs = append(f.Funcs, fn)
			continue
		}
		g, err := p.parseGlobalRest(base, nameTok)
		if err != nil {
			return nil, err
		}
		f.Globals = append(f.Globals, g)
	}
	return f, nil
}

func (p *Parser) parseGlobalRest(base BaseType, name Token) (*GlobalDecl, error) {
	if base == TypeVoid {
		return nil, p.errf("void variable %q", name.Text)
	}
	g := &GlobalDecl{Name: name.Text, Ty: Scalar(base), Line: name.Line}
	if p.accept(LBrack) {
		sz, err := p.expect(INTLIT)
		if err != nil {
			return nil, err
		}
		if sz.Int <= 0 {
			return nil, p.errf("array %q has non-positive size %d", name.Text, sz.Int)
		}
		if _, err := p.expect(RBrack); err != nil {
			return nil, err
		}
		g.Ty = ArrayOf(base, sz.Int)
	}
	if p.accept(Assign) {
		if g.Ty.IsArray {
			return nil, p.errf("array initializers are not supported; bind data from the host instead")
		}
		neg := p.accept(Minus)
		switch p.cur().Kind {
		case INTLIT, CHARLIT:
			t := p.next()
			g.HasInit = true
			g.InitInt = t.Int
			if neg {
				g.InitInt = -g.InitInt
			}
			if base == TypeDouble {
				g.InitFloat = float64(g.InitInt)
				g.InitInt = 0
			}
		case FLOATLIT:
			t := p.next()
			if base != TypeDouble {
				return nil, p.errf("float initializer for %s global", base)
			}
			g.HasInit = true
			g.InitFloat = t.F
			if neg {
				g.InitFloat = -g.InitFloat
			}
		default:
			return nil, p.errf("global initializers must be constants")
		}
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return g, nil
}

func (p *Parser) parseFuncRest(ret BaseType, name Token) (*FuncDecl, error) {
	fn := &FuncDecl{Name: name.Text, Ret: ret, Line: name.Line}
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	if !p.accept(RParen) {
		for {
			if !isTypeKw(p.cur().Kind) {
				return nil, p.errf("expected parameter type, found %s", p.cur())
			}
			base := baseOf(p.next().Kind)
			if base == TypeVoid {
				return nil, p.errf("void parameter")
			}
			isPtr := p.accept(Star)
			pn, err := p.expect(IDENT)
			if err != nil {
				return nil, err
			}
			if p.accept(LBrack) { // T name[] is a pointer parameter
				if _, err := p.expect(RBrack); err != nil {
					return nil, err
				}
				isPtr = true
			}
			ty := Scalar(base)
			if isPtr {
				ty = PtrTo(base)
			}
			fn.Params = append(fn.Params, Param{Name: pn.Text, Ty: ty, Line: pn.Line})
			if p.accept(RParen) {
				break
			}
			if _, err := p.expect(Comma); err != nil {
				return nil, err
			}
		}
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *Parser) parseBlock() (*Block, error) {
	start, err := p.expect(LBrace)
	if err != nil {
		return nil, err
	}
	b := &Block{Line: start.Line}
	for p.cur().Kind != RBrace {
		if p.cur().Kind == EOF {
			return nil, p.errf("unexpected EOF in block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		b.Stmts = append(b.Stmts, s)
	}
	p.next() // consume }
	return b, nil
}

func (p *Parser) parseStmt() (Stmt, error) {
	tok := p.cur()
	switch tok.Kind {
	case LBrace:
		return p.parseBlock()
	case KwIf:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		var els Stmt
		if p.accept(KwElse) {
			els, err = p.parseStmt()
			if err != nil {
				return nil, err
			}
		}
		return &If{Cond: cond, Then: then, Else: els, Line: tok.Line}, nil
	case KwWhile:
		p.next()
		if _, err := p.expect(LParen); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &While{Cond: cond, Body: body, Line: tok.Line}, nil
	case KwFor:
		return p.parseFor()
	case KwReturn:
		p.next()
		r := &Return{Line: tok.Line}
		if p.cur().Kind != Semi {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			r.X = x
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return r, nil
	case KwBreak:
		p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &Break{Line: tok.Line}, nil
	case KwContinue:
		p.next()
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &Continue{Line: tok.Line}, nil
	case KwInt, KwChar, KwDouble:
		return p.parseDecl()
	case KwVoid:
		return nil, p.errf("void local variable")
	case Semi:
		p.next()
		return &Block{Line: tok.Line}, nil // empty statement
	default:
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
		return &ExprStmt{X: x, Line: tok.Line}, nil
	}
}

func (p *Parser) parseDecl() (Stmt, error) {
	tok := p.next()
	base := baseOf(tok.Kind)
	name, err := p.expect(IDENT)
	if err != nil {
		return nil, err
	}
	d := &DeclStmt{Name: name.Text, Ty: Scalar(base), Line: name.Line}
	if p.accept(LBrack) {
		sz, err := p.expect(INTLIT)
		if err != nil {
			return nil, err
		}
		if sz.Int <= 0 {
			return nil, p.errf("array %q has non-positive size", name.Text)
		}
		if _, err := p.expect(RBrack); err != nil {
			return nil, err
		}
		d.Ty = ArrayOf(base, sz.Int)
	}
	if p.accept(Assign) {
		if d.Ty.IsArray {
			return nil, p.errf("array initializers are not supported")
		}
		x, err := p.parseAssignExpr()
		if err != nil {
			return nil, err
		}
		d.Init = x
	}
	if _, err := p.expect(Semi); err != nil {
		return nil, err
	}
	return d, nil
}

func (p *Parser) parseFor() (Stmt, error) {
	tok := p.next() // for
	if _, err := p.expect(LParen); err != nil {
		return nil, err
	}
	f := &For{Line: tok.Line}
	if !p.accept(Semi) {
		if isTypeKw(p.cur().Kind) {
			init, err := p.parseDecl() // consumes ;
			if err != nil {
				return nil, err
			}
			f.Init = init
		} else {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			f.Init = &ExprStmt{X: x, Line: tok.Line}
			if _, err := p.expect(Semi); err != nil {
				return nil, err
			}
		}
	}
	if !p.accept(Semi) {
		c, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Cond = c
		if _, err := p.expect(Semi); err != nil {
			return nil, err
		}
	}
	if !p.accept(RParen) {
		post, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Post = post
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	f.Body = body
	return f, nil
}

// --- Expressions (precedence climbing) ---

// parseExpr parses a comma-free expression (MiniC has no comma
// operator; for-post uses a single expression).
func (p *Parser) parseExpr() (Expr, error) { return p.parseAssignExpr() }

func (p *Parser) parseAssignExpr() (Expr, error) {
	lhs, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	switch k := p.cur().Kind; k {
	case Assign, PlusEq, MinusEq, StarEq, SlashEq, PercentEq:
		tok := p.next()
		if !isLvalue(lhs) {
			return nil, &SyntaxError{File: p.file, Line: tok.Line, Msg: "assignment to non-lvalue"}
		}
		rhs, err := p.parseAssignExpr() // right-associative
		if err != nil {
			return nil, err
		}
		return &Assign2{Op: k, Lhs: lhs, Rhs: rhs, Line: tok.Line}, nil
	}
	return lhs, nil
}

func isLvalue(e Expr) bool {
	switch e.(type) {
	case *VarRef, *Index:
		return true
	}
	return false
}

func (p *Parser) parseCondExpr() (Expr, error) {
	c, err := p.parseBinary(0)
	if err != nil {
		return nil, err
	}
	if p.cur().Kind != Question {
		return c, nil
	}
	tok := p.next()
	a, err := p.parseAssignExpr()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(Colon); err != nil {
		return nil, err
	}
	b, err := p.parseCondExpr()
	if err != nil {
		return nil, err
	}
	return &Cond{C: c, A: a, B: b, Line: tok.Line}, nil
}

// binary operator precedence (C-like, higher binds tighter).
var binPrec = map[Kind]int{
	OrOr: 1, AndAnd: 2, Or: 3, Xor: 4, And: 5,
	EqEq: 6, NotEq: 6,
	Lt: 7, Le: 7, Gt: 7, Ge: 7,
	Shl: 8, Shr: 8,
	Plus: 9, Minus: 9,
	Star: 10, Slash: 10, Percent: 10,
}

func (p *Parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		k := p.cur().Kind
		prec, ok := binPrec[k]
		if !ok || prec < minPrec {
			return lhs, nil
		}
		tok := p.next()
		rhs, err := p.parseBinary(prec + 1)
		if err != nil {
			return nil, err
		}
		if k == OrOr || k == AndAnd {
			lhs = &Logical{Op: k, X: lhs, Y: rhs, Line: tok.Line}
		} else {
			lhs = &Binary{Op: k, X: lhs, Y: rhs, Line: tok.Line}
		}
	}
}

func (p *Parser) parseUnary() (Expr, error) {
	tok := p.cur()
	switch tok.Kind {
	case Minus, Not, Tilde:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		// Fold -literal immediately for readable constants.
		if tok.Kind == Minus {
			if il, ok := x.(*IntLit); ok {
				return &IntLit{Val: -il.Val, Line: tok.Line}, nil
			}
			if fl, ok := x.(*FloatLit); ok {
				return &FloatLit{Val: -fl.Val, Line: tok.Line}, nil
			}
		}
		return &Unary{Op: tok.Kind, X: x, Line: tok.Line}, nil
	case Inc, Dec:
		p.next()
		x, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		if !isLvalue(x) {
			return nil, &SyntaxError{File: p.file, Line: tok.Line, Msg: "++/-- of non-lvalue"}
		}
		return &IncDec{Op: tok.Kind, X: x, Line: tok.Line}, nil
	case LParen:
		// Cast: "(" type ")" unary.
		if isTypeKw(p.peek().Kind) && p.peek().Kind != KwVoid {
			p.next()
			base := baseOf(p.next().Kind)
			if _, err := p.expect(RParen); err != nil {
				return nil, err
			}
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &Cast{To: base, X: x, Line: tok.Line}, nil
		}
	}
	return p.parsePostfix()
}

func (p *Parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		tok := p.cur()
		switch tok.Kind {
		case LBrack:
			vr, ok := x.(*VarRef)
			if !ok {
				return nil, &SyntaxError{File: p.file, Line: tok.Line,
					Msg: "only named arrays can be indexed"}
			}
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(RBrack); err != nil {
				return nil, err
			}
			x = &Index{Arr: vr, Idx: idx, Line: tok.Line}
		case Inc, Dec:
			if !isLvalue(x) {
				return nil, &SyntaxError{File: p.file, Line: tok.Line, Msg: "++/-- of non-lvalue"}
			}
			p.next()
			x = &IncDec{Op: tok.Kind, Postfix: true, X: x, Line: tok.Line}
		default:
			return x, nil
		}
	}
}

func (p *Parser) parsePrimary() (Expr, error) {
	tok := p.cur()
	switch tok.Kind {
	case INTLIT, CHARLIT:
		p.next()
		return &IntLit{Val: tok.Int, Line: tok.Line}, nil
	case FLOATLIT:
		p.next()
		return &FloatLit{Val: tok.F, Line: tok.Line}, nil
	case IDENT:
		p.next()
		if p.cur().Kind == LParen {
			p.next()
			call := &Call{Name: tok.Text, Line: tok.Line}
			if !p.accept(RParen) {
				for {
					a, err := p.parseAssignExpr()
					if err != nil {
						return nil, err
					}
					call.Args = append(call.Args, a)
					if p.accept(RParen) {
						break
					}
					if _, err := p.expect(Comma); err != nil {
						return nil, err
					}
				}
			}
			return call, nil
		}
		return &VarRef{Name: tok.Text, Line: tok.Line}, nil
	case LParen:
		p.next()
		x, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(RParen); err != nil {
			return nil, err
		}
		return x, nil
	}
	return nil, p.errf("expected expression, found %s", tok)
}
