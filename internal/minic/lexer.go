package minic

import (
	"fmt"
	"strconv"
)

// SyntaxError reports a lexical or parse error with its source line.
type SyntaxError struct {
	File string
	Line int32
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("%s:%d: %s", e.File, e.Line, e.Msg)
}

// Lexer tokenizes MiniC source.
type Lexer struct {
	file string
	src  string
	pos  int
	line int32
}

// NewLexer returns a lexer over src; file is used in error messages.
func NewLexer(file, src string) *Lexer {
	return &Lexer{file: file, src: src, line: 1}
}

func (l *Lexer) errf(format string, args ...any) error {
	return &SyntaxError{File: l.file, Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *Lexer) peekByte2() byte {
	if l.pos+1 >= len(l.src) {
		return 0
	}
	return l.src[l.pos+1]
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdent(c byte) bool { return isIdentStart(c) || isDigit(c) }

func (l *Lexer) skipSpaceAndComments() error {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '/' && l.peekByte2() == '/':
			for l.pos < len(l.src) && l.src[l.pos] != '\n' {
				l.pos++
			}
		case c == '/' && l.peekByte2() == '*':
			l.pos += 2
			for {
				if l.pos+1 >= len(l.src) {
					return l.errf("unterminated block comment")
				}
				if l.src[l.pos] == '*' && l.src[l.pos+1] == '/' {
					l.pos += 2
					break
				}
				if l.src[l.pos] == '\n' {
					l.line++
				}
				l.pos++
			}
		default:
			return nil
		}
	}
	return nil
}

// twoKinds and oneKinds are the operator and punctuation tables,
// looked up longest match first. They are built once: Next allocates
// nothing for a token that lexes.
var (
	twoKinds = map[string]Kind{
		"+=": PlusEq, "-=": MinusEq, "*=": StarEq, "/=": SlashEq,
		"%=": PercentEq, "||": OrOr, "&&": AndAnd, "==": EqEq,
		"!=": NotEq, "<=": Le, ">=": Ge, "<<": Shl, ">>": Shr,
		"++": Inc, "--": Dec,
	}
	oneKinds = map[byte]Kind{
		'(': LParen, ')': RParen, '{': LBrace, '}': RBrace,
		'[': LBrack, ']': RBrack, ',': Comma, ';': Semi,
		'?': Question, ':': Colon, '=': Assign, '|': Or, '^': Xor,
		'&': And, '<': Lt, '>': Gt, '+': Plus, '-': Minus,
		'*': Star, '/': Slash, '%': Percent, '!': Not, '~': Tilde,
	}
)

// Next returns the next token.
func (l *Lexer) Next() (Token, error) {
	if err := l.skipSpaceAndComments(); err != nil {
		return Token{}, err
	}
	tok := Token{Line: l.line}
	if l.pos >= len(l.src) {
		tok.Kind = EOF
		return tok, nil
	}
	c := l.src[l.pos]

	switch {
	case isIdentStart(c):
		start := l.pos
		for l.pos < len(l.src) && isIdent(l.src[l.pos]) {
			l.pos++
		}
		text := l.src[start:l.pos]
		if kw, ok := keywords[text]; ok {
			tok.Kind = kw
		} else {
			tok.Kind = IDENT
			tok.Text = text
		}
		return tok, nil

	case isDigit(c):
		start := l.pos
		isFloat := false
		for l.pos < len(l.src) && (isDigit(l.src[l.pos]) ||
			l.src[l.pos] == '.' || l.src[l.pos] == 'x' || l.src[l.pos] == 'X' ||
			(l.src[l.pos] >= 'a' && l.src[l.pos] <= 'f') ||
			(l.src[l.pos] >= 'A' && l.src[l.pos] <= 'F') ||
			l.src[l.pos] == 'e' || l.src[l.pos] == 'E' ||
			((l.src[l.pos] == '+' || l.src[l.pos] == '-') && l.pos > start &&
				(l.src[l.pos-1] == 'e' || l.src[l.pos-1] == 'E') &&
				!isHexLiteral(l.src[start:l.pos]))) {
			if l.src[l.pos] == '.' {
				isFloat = true
			}
			l.pos++
		}
		text := l.src[start:l.pos]
		if isFloat || (hasExponent(text) && !isHexLiteral(text)) {
			f, err := strconv.ParseFloat(text, 64)
			if err != nil {
				return Token{}, l.errf("bad float literal %q", text)
			}
			tok.Kind = FLOATLIT
			tok.F = f
			return tok, nil
		}
		v, err := strconv.ParseInt(text, 0, 64)
		if err != nil {
			return Token{}, l.errf("bad integer literal %q", text)
		}
		tok.Kind = INTLIT
		tok.Int = v
		return tok, nil

	case c == '\'':
		l.pos++
		if l.pos >= len(l.src) {
			return Token{}, l.errf("unterminated char literal")
		}
		var v int64
		if l.src[l.pos] == '\\' {
			l.pos++
			if l.pos >= len(l.src) {
				return Token{}, l.errf("unterminated char literal")
			}
			switch l.src[l.pos] {
			case 'n':
				v = '\n'
			case 't':
				v = '\t'
			case '0':
				v = 0
			case '\\':
				v = '\\'
			case '\'':
				v = '\''
			default:
				return Token{}, l.errf("unknown escape \\%c", l.src[l.pos])
			}
		} else {
			v = int64(l.src[l.pos])
		}
		l.pos++
		if l.pos >= len(l.src) || l.src[l.pos] != '\'' {
			return Token{}, l.errf("unterminated char literal")
		}
		l.pos++
		tok.Kind = CHARLIT
		tok.Int = v
		return tok, nil
	}

	// Operators and punctuation: longest match first.
	two := ""
	if l.pos+1 < len(l.src) {
		two = l.src[l.pos : l.pos+2]
	}
	if k, ok := twoKinds[two]; ok {
		l.pos += 2
		tok.Kind = k
		return tok, nil
	}
	if k, ok := oneKinds[c]; ok {
		l.pos++
		tok.Kind = k
		return tok, nil
	}
	return Token{}, l.errf("unexpected character %q", c)
}

func hasExponent(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == 'e' || s[i] == 'E' {
			return true
		}
	}
	return false
}

func isHexLiteral(s string) bool {
	return len(s) > 1 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')
}

// LexAll tokenizes the whole input (testing convenience; Parse pulls
// tokens from a Lexer one at a time).
func LexAll(file, src string) ([]Token, error) {
	l := NewLexer(file, src)
	var out []Token
	for {
		t, err := l.Next()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
		if t.Kind == EOF {
			return out, nil
		}
	}
}
