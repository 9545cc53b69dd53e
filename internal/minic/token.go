// Package minic implements the front end of MiniC, the small C-like
// language the reproduction's benchmark kernels are written in. MiniC
// exists so that the paper's *source-level* load-scheduling
// transformations can be expressed exactly as the paper writes them
// (Figures 6 and 8): the original and load-transformed kernels are two
// MiniC sources compiled by the same optimizing compiler, just as the
// paper compiles two C sources with the same DEC C flags.
//
// The language: int (64-bit), char (8-bit array element), double
// (float64), void; global and local variables and one-dimensional
// arrays; pointer parameters (int *p / int p[]); functions with
// recursion; if/else, while, for, break, continue, return; the usual C
// expression operators including ?:, short-circuit && and ||,
// compound assignment, and prefix/postfix ++/--; explicit (int)/
// (double) casts; and a builtin print(x).
//
// The front end streams: Parse pulls tokens from a Lexer through a
// two-token window and never backtracks, so no token slice is built
// (LexAll, which builds one, is a test helper), and the Lexer's
// operator and keyword tables are package-level, so lexing a source
// allocates nothing per token. Every compile pays this, which matters
// to the timing path: each Table 8 cell's program is compiled once per
// session.
package minic

import "fmt"

// Kind enumerates token kinds.
type Kind uint8

// Token kinds.
const (
	EOF Kind = iota
	IDENT
	INTLIT
	FLOATLIT
	CHARLIT

	// Keywords.
	KwInt
	KwChar
	KwDouble
	KwVoid
	KwIf
	KwElse
	KwWhile
	KwFor
	KwReturn
	KwBreak
	KwContinue

	// Punctuation and operators.
	LParen
	RParen
	LBrace
	RBrace
	LBrack
	RBrack
	Comma
	Semi
	Question
	Colon

	Assign    // =
	PlusEq    // +=
	MinusEq   // -=
	StarEq    // *=
	SlashEq   // /=
	PercentEq // %=

	OrOr    // ||
	AndAnd  // &&
	Or      // |
	Xor     // ^
	And     // &
	EqEq    // ==
	NotEq   // !=
	Lt      // <
	Le      // <=
	Gt      // >
	Ge      // >=
	Shl     // <<
	Shr     // >>
	Plus    // +
	Minus   // -
	Star    // *
	Slash   // /
	Percent // %
	Not     // !
	Tilde   // ~
	Inc     // ++
	Dec     // --
)

var kindNames = map[Kind]string{
	EOF: "EOF", IDENT: "identifier", INTLIT: "integer literal",
	FLOATLIT: "float literal", CHARLIT: "char literal",
	KwInt: "int", KwChar: "char", KwDouble: "double", KwVoid: "void",
	KwIf: "if", KwElse: "else", KwWhile: "while", KwFor: "for",
	KwReturn: "return", KwBreak: "break", KwContinue: "continue",
	LParen: "(", RParen: ")", LBrace: "{", RBrace: "}",
	LBrack: "[", RBrack: "]", Comma: ",", Semi: ";",
	Question: "?", Colon: ":",
	Assign: "=", PlusEq: "+=", MinusEq: "-=", StarEq: "*=",
	SlashEq: "/=", PercentEq: "%=",
	OrOr: "||", AndAnd: "&&", Or: "|", Xor: "^", And: "&",
	EqEq: "==", NotEq: "!=", Lt: "<", Le: "<=", Gt: ">", Ge: ">=",
	Shl: "<<", Shr: ">>", Plus: "+", Minus: "-", Star: "*",
	Slash: "/", Percent: "%", Not: "!", Tilde: "~", Inc: "++", Dec: "--",
}

// String returns a human-readable token kind name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

var keywords = map[string]Kind{
	"int": KwInt, "char": KwChar, "double": KwDouble, "void": KwVoid,
	"if": KwIf, "else": KwElse, "while": KwWhile, "for": KwFor,
	"return": KwReturn, "break": KwBreak, "continue": KwContinue,
}

// Token is one lexical token.
type Token struct {
	Kind Kind
	Text string  // identifier spelling
	Int  int64   // INTLIT / CHARLIT value
	F    float64 // FLOATLIT value
	Line int32
}

func (t Token) String() string {
	switch t.Kind {
	case IDENT:
		return t.Text
	case INTLIT:
		return fmt.Sprintf("%d", t.Int)
	case FLOATLIT:
		return fmt.Sprintf("%g", t.F)
	default:
		return t.Kind.String()
	}
}
