// Package token defines the lexical tokens of the protocol-C subset
// understood by the flashmc frontend, along with source positions.
//
// The token vocabulary covers ANSI C as used by FLASH protocol code:
// all operators and punctuation, keywords, identifiers, and integer,
// floating, character and string literals. The preprocessor directives
// are not tokens; they are handled textually by package cpp before the
// lexer output reaches the parser.
package token

import "fmt"

// Kind identifies the lexical class of a token.
type Kind int

// Token kinds. The operator block is ordered so that related operators
// are adjacent; the parser relies only on identity, never on ordering.
const (
	EOF Kind = iota
	Ident
	IntLit
	FloatLit
	CharLit
	StringLit

	// Punctuation and operators.
	LParen   // (
	RParen   // )
	LBrace   // {
	RBrace   // }
	LBracket // [
	RBracket // ]
	Semi     // ;
	Comma    // ,
	Dot      // .
	Arrow    // ->
	Ellipsis // ...

	Assign     // =
	AddAssign  // +=
	SubAssign  // -=
	MulAssign  // *=
	DivAssign  // /=
	ModAssign  // %=
	AndAssign  // &=
	OrAssign   // |=
	XorAssign  // ^=
	ShlAssign  // <<=
	ShrAssign  // >>=
	Question   // ?
	Colon      // :
	LogicalOr  // ||
	LogicalAnd // &&
	BitOr      // |
	BitXor     // ^
	BitAnd     // &
	Eq         // ==
	NotEq      // !=
	Less       // <
	Greater    // >
	LessEq     // <=
	GreaterEq  // >=
	Shl        // <<
	Shr        // >>
	Add        // +
	Sub        // -
	Star       // *
	Div        // /
	Mod        // %
	Not        // !
	Tilde      // ~
	Inc        // ++
	Dec        // --

	// Keywords.
	KwAuto
	KwBreak
	KwCase
	KwChar
	KwConst
	KwContinue
	KwDefault
	KwDo
	KwDouble
	KwElse
	KwEnum
	KwExtern
	KwFloat
	KwFor
	KwGoto
	KwIf
	KwInline
	KwInt
	KwLong
	KwRegister
	KwReturn
	KwShort
	KwSigned
	KwSizeof
	KwStatic
	KwStruct
	KwSwitch
	KwTypedef
	KwUnion
	KwUnsigned
	KwVoid
	KwVolatile
	KwWhile

	numKinds
)

var kindNames = [...]string{
	EOF:       "EOF",
	Ident:     "identifier",
	IntLit:    "integer literal",
	FloatLit:  "float literal",
	CharLit:   "char literal",
	StringLit: "string literal",

	LParen:   "(",
	RParen:   ")",
	LBrace:   "{",
	RBrace:   "}",
	LBracket: "[",
	RBracket: "]",
	Semi:     ";",
	Comma:    ",",
	Dot:      ".",
	Arrow:    "->",
	Ellipsis: "...",

	Assign:     "=",
	AddAssign:  "+=",
	SubAssign:  "-=",
	MulAssign:  "*=",
	DivAssign:  "/=",
	ModAssign:  "%=",
	AndAssign:  "&=",
	OrAssign:   "|=",
	XorAssign:  "^=",
	ShlAssign:  "<<=",
	ShrAssign:  ">>=",
	Question:   "?",
	Colon:      ":",
	LogicalOr:  "||",
	LogicalAnd: "&&",
	BitOr:      "|",
	BitXor:     "^",
	BitAnd:     "&",
	Eq:         "==",
	NotEq:      "!=",
	Less:       "<",
	Greater:    ">",
	LessEq:     "<=",
	GreaterEq:  ">=",
	Shl:        "<<",
	Shr:        ">>",
	Add:        "+",
	Sub:        "-",
	Star:       "*",
	Div:        "/",
	Mod:        "%",
	Not:        "!",
	Tilde:      "~",
	Inc:        "++",
	Dec:        "--",

	KwAuto:     "auto",
	KwBreak:    "break",
	KwCase:     "case",
	KwChar:     "char",
	KwConst:    "const",
	KwContinue: "continue",
	KwDefault:  "default",
	KwDo:       "do",
	KwDouble:   "double",
	KwElse:     "else",
	KwEnum:     "enum",
	KwExtern:   "extern",
	KwFloat:    "float",
	KwFor:      "for",
	KwGoto:     "goto",
	KwIf:       "if",
	KwInline:   "inline",
	KwInt:      "int",
	KwLong:     "long",
	KwRegister: "register",
	KwReturn:   "return",
	KwShort:    "short",
	KwSigned:   "signed",
	KwSizeof:   "sizeof",
	KwStatic:   "static",
	KwStruct:   "struct",
	KwSwitch:   "switch",
	KwTypedef:  "typedef",
	KwUnion:    "union",
	KwUnsigned: "unsigned",
	KwVoid:     "void",
	KwVolatile: "volatile",
	KwWhile:    "while",
}

// String returns the canonical spelling of the kind ("+=", "while") or
// a descriptive name for variable-spelling classes ("identifier").
func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) || kindNames[k] == "" {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// keywords maps keyword spellings to their token kinds.
var keywords = map[string]Kind{}

func init() {
	for k := KwAuto; k <= KwWhile; k++ {
		keywords[kindNames[k]] = k
	}
}

// Lookup returns the keyword kind for an identifier spelling, or Ident
// if the spelling is not a keyword.
func Lookup(ident string) Kind {
	if k, ok := keywords[ident]; ok {
		return k
	}
	return Ident
}

// IsAssign reports whether k is an assignment operator (= and the
// compound assignments).
func (k Kind) IsAssign() bool { return k >= Assign && k <= ShrAssign }

// IsTypeStart reports whether k can begin a type specifier. Typedef
// names also begin types but are Ident tokens; the parser resolves
// those against its symbol table.
func (k Kind) IsTypeStart() bool {
	switch k {
	case KwVoid, KwChar, KwShort, KwInt, KwLong, KwFloat, KwDouble,
		KwSigned, KwUnsigned, KwStruct, KwUnion, KwEnum, KwConst,
		KwVolatile:
		return true
	}
	return false
}

// Pos is a source position. Positions compare meaningfully only within
// one logical translation unit. The zero Pos is "no position".
type Pos struct {
	File string
	Line int // 1-based
	Col  int // 1-based, in bytes
}

// IsValid reports whether the position carries location information.
func (p Pos) IsValid() bool { return p.Line > 0 }

func (p Pos) String() string {
	if !p.IsValid() {
		return "-"
	}
	if p.File == "" {
		return fmt.Sprintf("%d:%d", p.Line, p.Col)
	}
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// Token is a single lexical token with its position and spelling.
type Token struct {
	Kind Kind
	Pos  Pos
	Text string // raw spelling as it appeared in the source
}

func (t Token) String() string {
	switch t.Kind {
	case Ident, IntLit, FloatLit, CharLit, StringLit:
		return fmt.Sprintf("%s %q", t.Kind, t.Text)
	default:
		return t.Kind.String()
	}
}
