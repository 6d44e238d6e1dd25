package policy

import (
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// The policy DSL is the textual form in which an OEM distributes policy
// definitions (§V-A.2 "the OEM can distribute a policy definition update").
// Grammar (comments run from '#' or '//' to end of line):
//
//	file      = "policy" STRING "version" INT "{" stmt* "}" .
//	stmt      = "default" "deny" | modeBlock | rule .
//	modeBlock = "mode" modeList "{" rule* "}" .
//	rule      = effect action idList "at" subject [ "in" modeList ] [ "as" STRING ] .
//	effect    = "allow" | "deny" .
//	action    = "read" | "write" | "readwrite" .
//	idList    = idRange { "," idRange } .
//	idRange   = NUMBER [ ".." NUMBER ] .
//	subject   = IDENT | STRING | "*" .
//	modeList  = IDENT { "," IDENT } .
//
// "default deny" is declarative documentation: the model is always
// default-deny. Declaring anything else is a parse error.

type tokenKind uint8

const (
	tokEOF tokenKind = iota + 1
	tokIdent
	tokString
	tokNumber
	tokLBrace
	tokRBrace
	tokComma
	tokDotDot
	tokStar
)

func (k tokenKind) String() string {
	switch k {
	case tokEOF:
		return "end of input"
	case tokIdent:
		return "identifier"
	case tokString:
		return "string"
	case tokNumber:
		return "number"
	case tokLBrace:
		return "'{'"
	case tokRBrace:
		return "'}'"
	case tokComma:
		return "','"
	case tokDotDot:
		return "'..'"
	case tokStar:
		return "'*'"
	default:
		return "invalid token"
	}
}

type token struct {
	kind tokenKind
	text string
	num  uint64
	line int
}

// ParseError reports a syntax error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

// Error implements error.
func (e *ParseError) Error() string {
	return fmt.Sprintf("policy: line %d: %s", e.Line, e.Msg)
}

type lexer struct {
	src  string
	pos  int
	line int
}

func newLexer(src string) *lexer { return &lexer{src: src, line: 1} }

func isIdentRune(r rune) bool {
	return unicode.IsLetter(r) || unicode.IsDigit(r) || r == '_' || r == '-' || r == '/' || r == '.'
}

func (l *lexer) errf(format string, args ...any) *ParseError {
	return &ParseError{Line: l.line, Msg: fmt.Sprintf(format, args...)}
}

func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == '\n':
			l.line++
			l.pos++
		case c == ' ' || c == '\t' || c == '\r':
			l.pos++
		case c == '#':
			l.skipLine()
		case c == '/' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '/':
			l.skipLine()
		default:
			return l.lexToken()
		}
	}
	return token{kind: tokEOF, line: l.line}, nil
}

func (l *lexer) skipLine() {
	for l.pos < len(l.src) && l.src[l.pos] != '\n' {
		l.pos++
	}
}

func (l *lexer) lexToken() (token, error) {
	c := l.src[l.pos]
	switch {
	case c == '{':
		l.pos++
		return token{kind: tokLBrace, line: l.line}, nil
	case c == '}':
		l.pos++
		return token{kind: tokRBrace, line: l.line}, nil
	case c == ',':
		l.pos++
		return token{kind: tokComma, line: l.line}, nil
	case c == '*':
		l.pos++
		return token{kind: tokStar, line: l.line}, nil
	case c == '.':
		if l.pos+1 < len(l.src) && l.src[l.pos+1] == '.' {
			l.pos += 2
			return token{kind: tokDotDot, line: l.line}, nil
		}
		return token{}, l.errf("unexpected '.'")
	case c == '"':
		return l.lexString()
	case c >= '0' && c <= '9':
		return l.lexNumber()
	default:
		r := rune(c)
		if unicode.IsLetter(r) || r == '_' {
			return l.lexIdent()
		}
		return token{}, l.errf("unexpected character %q", c)
	}
}

func (l *lexer) lexString() (token, error) {
	start := l.pos
	l.pos++ // opening quote
	var b strings.Builder
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch c {
		case '"':
			l.pos++
			text := b.String()
			// Constrain strings to printable UTF-8 (tab and newline enter
			// via escapes): anything else cannot round-trip through the
			// %q rendering the DSL emitter uses.
			if err := checkStringContent(l, text); err != nil {
				return token{}, err
			}
			return token{kind: tokString, text: text, line: l.line}, nil
		case '\\':
			if l.pos+1 >= len(l.src) {
				return token{}, l.errf("unterminated escape")
			}
			l.pos++
			esc := l.src[l.pos]
			switch esc {
			case '"', '\\':
				b.WriteByte(esc)
			case 'n':
				b.WriteByte('\n')
			case 't':
				b.WriteByte('\t')
			default:
				return token{}, l.errf("unknown escape \\%c", esc)
			}
			l.pos++
		case '\n':
			return token{}, l.errf("unterminated string starting at offset %d", start)
		default:
			b.WriteByte(c)
			l.pos++
		}
	}
	return token{}, l.errf("unterminated string")
}

// checkStringContent rejects string values the DSL emitter cannot render
// back losslessly: invalid UTF-8 and non-printable runes (other than tab
// and newline, which have dedicated escapes).
func checkStringContent(l *lexer, s string) *ParseError {
	if !utf8.ValidString(s) {
		return l.errf("string literal is not valid UTF-8")
	}
	for _, r := range s {
		if r == '\n' || r == '\t' {
			continue
		}
		if !unicode.IsPrint(r) {
			return l.errf("string literal contains non-printable rune %U", r)
		}
	}
	return nil
}

func (l *lexer) lexNumber() (token, error) {
	start := l.pos
	if strings.HasPrefix(l.src[l.pos:], "0x") || strings.HasPrefix(l.src[l.pos:], "0X") {
		l.pos += 2
		for l.pos < len(l.src) && isHexDigit(l.src[l.pos]) {
			l.pos++
		}
	} else {
		for l.pos < len(l.src) && l.src[l.pos] >= '0' && l.src[l.pos] <= '9' {
			l.pos++
		}
	}
	text := l.src[start:l.pos]
	// A trailing ".." belongs to the range operator, which ParseUint would
	// reject anyway since we stopped at the first non-digit.
	v, err := strconv.ParseUint(text, 0, 64)
	if err != nil {
		return token{}, l.errf("bad number %q", text)
	}
	return token{kind: tokNumber, text: text, num: v, line: l.line}, nil
}

func isHexDigit(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

func (l *lexer) lexIdent() (token, error) {
	start := l.pos
	for l.pos < len(l.src) {
		r := rune(l.src[l.pos])
		if r == '.' && l.pos+1 < len(l.src) && l.src[l.pos+1] == '.' {
			break // ".." range operator, not part of the identifier
		}
		if !isIdentRune(r) {
			break
		}
		l.pos++
	}
	return token{kind: tokIdent, text: l.src[start:l.pos], line: l.line}, nil
}

type parser struct {
	lex *lexer
	tok token
}

func (p *parser) advance() error {
	t, err := p.lex.next()
	if err != nil {
		return err
	}
	p.tok = t
	return nil
}

func (p *parser) errf(format string, args ...any) *ParseError {
	return &ParseError{Line: p.tok.line, Msg: fmt.Sprintf(format, args...)}
}

func (p *parser) expect(k tokenKind) (token, error) {
	if p.tok.kind != k {
		return token{}, p.errf("expected %v, found %v", k, p.tok.kind)
	}
	t := p.tok
	return t, p.advance()
}

func (p *parser) keyword(words ...string) (string, error) {
	if p.tok.kind != tokIdent {
		return "", p.errf("expected one of %v, found %v", words, p.tok.kind)
	}
	for _, w := range words {
		if p.tok.text == w {
			return w, p.advance()
		}
	}
	return "", p.errf("expected one of %v, found %q", words, p.tok.text)
}

// Parse reads a policy DSL document into a validated Set.
func Parse(src string) (*Set, error) {
	p := &parser{lex: newLexer(src)}
	if err := p.advance(); err != nil {
		return nil, err
	}
	if _, err := p.keyword("policy"); err != nil {
		return nil, err
	}
	name, err := p.expect(tokString)
	if err != nil {
		return nil, err
	}
	if _, err := p.keyword("version"); err != nil {
		return nil, err
	}
	ver, err := p.expect(tokNumber)
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return nil, err
	}
	set := &Set{Name: name.text, Version: ver.num}
	for p.tok.kind != tokRBrace {
		switch {
		case p.tok.kind == tokEOF:
			return nil, p.errf("unexpected end of input: missing '}'")
		case p.tok.kind == tokIdent && p.tok.text == "default":
			if err := p.advance(); err != nil {
				return nil, err
			}
			if _, err := p.keyword("deny"); err != nil {
				return nil, &ParseError{Line: p.tok.line,
					Msg: "only 'default deny' is supported: the model is closed-world"}
			}
		case p.tok.kind == tokIdent && p.tok.text == "mode":
			if err := p.parseModeBlock(set); err != nil {
				return nil, err
			}
		default:
			r, err := p.parseRule(nil)
			if err != nil {
				return nil, err
			}
			set.Rules = append(set.Rules, r)
		}
	}
	if err := p.advance(); err != nil { // consume '}'
		return nil, err
	}
	if p.tok.kind != tokEOF {
		return nil, p.errf("trailing input after policy block")
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	return set, nil
}

func (p *parser) parseModeBlock(set *Set) error {
	if err := p.advance(); err != nil { // consume "mode"
		return err
	}
	modes, err := p.parseModeList()
	if err != nil {
		return err
	}
	if _, err := p.expect(tokLBrace); err != nil {
		return err
	}
	for p.tok.kind != tokRBrace {
		if p.tok.kind == tokEOF {
			return p.errf("unexpected end of input in mode block")
		}
		r, err := p.parseRule(modes)
		if err != nil {
			return err
		}
		set.Rules = append(set.Rules, r)
	}
	return p.advance() // consume '}'
}

func (p *parser) parseModeList() (ModeSet, error) {
	modes := ModeSet{}
	for {
		t, err := p.expect(tokIdent)
		if err != nil {
			return nil, err
		}
		modes = modes.Add(Mode(t.text))
		if p.tok.kind != tokComma {
			return modes, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}

func (p *parser) parseRule(blockModes ModeSet) (Rule, error) {
	var r Rule
	kw, err := p.keyword("allow", "deny")
	if err != nil {
		return r, err
	}
	if kw == "allow" {
		r.Effect = Allow
	} else {
		r.Effect = Deny
	}
	act, err := p.keyword("read", "write", "readwrite")
	if err != nil {
		return r, err
	}
	switch act {
	case "read":
		r.Action = ActRead
	case "write":
		r.Action = ActWrite
	case "readwrite":
		r.Action = ActReadWrite
	}
	ids, err := p.parseIDList()
	if err != nil {
		return r, err
	}
	r.IDs = ids
	if _, err := p.keyword("at"); err != nil {
		return r, err
	}
	switch p.tok.kind {
	case tokStar:
		r.Subject = SubjectAll
		if err := p.advance(); err != nil {
			return r, err
		}
	case tokIdent, tokString:
		r.Subject = p.tok.text
		if err := p.advance(); err != nil {
			return r, err
		}
	default:
		return r, p.errf("expected subject, found %v", p.tok.kind)
	}
	r.Modes = blockModes.Clone()
	for p.tok.kind == tokIdent && (p.tok.text == "in" || p.tok.text == "as") {
		switch p.tok.text {
		case "in":
			if len(r.Modes) > 0 {
				return r, p.errf("rule inside a mode block cannot re-declare modes")
			}
			if err := p.advance(); err != nil {
				return r, err
			}
			modes, err := p.parseModeList()
			if err != nil {
				return r, err
			}
			r.Modes = modes
		case "as":
			if err := p.advance(); err != nil {
				return r, err
			}
			name, err := p.expect(tokString)
			if err != nil {
				return r, err
			}
			r.Name = name.text
		}
	}
	return r, nil
}

func (p *parser) parseIDList() (IDSet, error) {
	var ids IDSet
	for {
		lo, err := p.expect(tokNumber)
		if err != nil {
			return nil, err
		}
		r := IDRange{Lo: uint32(lo.num), Hi: uint32(lo.num)}
		if lo.num > 0xFFFFFFFF {
			return nil, p.errf("identifier %s out of 32-bit range", lo.text)
		}
		if p.tok.kind == tokDotDot {
			if err := p.advance(); err != nil {
				return nil, err
			}
			hi, err := p.expect(tokNumber)
			if err != nil {
				return nil, err
			}
			if hi.num > 0xFFFFFFFF {
				return nil, p.errf("identifier %s out of 32-bit range", hi.text)
			}
			r.Hi = uint32(hi.num)
		}
		ids = append(ids, r)
		if p.tok.kind != tokComma {
			return ids, nil
		}
		if err := p.advance(); err != nil {
			return nil, err
		}
	}
}
