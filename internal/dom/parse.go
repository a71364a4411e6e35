package dom

import (
	"strings"
)

// ParseHTML builds a document from HTML bytes. The parser is tolerant:
// unclosed tags are closed at end of input, mismatched closers pop to the
// nearest matching ancestor, and attribute values may be quoted with
// single quotes, double quotes, or nothing. It is sufficient for the
// synthetic corpus and the simulated applications — and, importantly, for
// whatever bytes an attacker injects.
//
// The tree is built from Tokenizer's tokens over one string conversion
// of the input: every tag name, attribute, and text fragment is a
// substring of that one allocation, elements and attribute lists come
// from chunked arenas, and lowercasing/case-folding never allocates on
// the (overwhelmingly common) already-lowercase path.
func ParseHTML(url string, content []byte) *Document {
	d := &Document{URL: url}
	var arena elemArena
	root := arena.new("html")
	d.Root = root

	stack := []*Element{root}
	var z Tokenizer
	z.Reset(string(content))
	for z.Next() {
		top := stack[len(stack)-1]
		switch z.Kind {
		case TextToken:
			top.Text += z.Text
		case EndTagToken:
			for n := len(stack) - 1; n > 0; n-- {
				// ASCII fold only, matching the </script> scan: Unicode
				// fold pairs must not close an element.
				if len(stack[n].Tag) == len(z.Name) && foldEq(stack[n].Tag, z.Name) {
					stack = stack[:n]
					break
				}
			}
		case StartTagToken:
			if z.Name == "html" {
				// Merge attributes into the existing root instead of
				// nesting a second html element.
				for _, a := range z.Attrs {
					root.SetAttr(a.Key, a.Value)
				}
				continue
			}
			el := arena.new(z.Name)
			el.Attrs = z.keepAttrs()
			top.Append(el)
			switch {
			case el.Tag == "script":
				el.Text = z.Text
			case !z.SelfClosing && !voidTags[el.Tag]:
				stack = append(stack, el)
			}
		}
	}
	return d
}

// TokenKind classifies the token Tokenizer.Next stopped at.
type TokenKind uint8

// Token kinds. Comments and doctypes produce no token.
const (
	TextToken TokenKind = iota + 1
	StartTagToken
	EndTagToken
)

// Tokenizer splits HTML into text, start-tag and end-tag tokens in
// document order. It is the package's one HTML tokenizer: ParseHTML
// builds its tree from these tokens, and a caller that only needs
// tags and attributes (the crawler) reads them without building one.
// Comments and doctypes are skipped, and a script start tag consumes
// its raw text up to the closing </script> (ASCII case-insensitive),
// so markup inside a script is never tokenized.
//
// Every string a token carries is a substring of the input, except a
// tag name or attribute key written with upper-case letters, which is
// lower-cased into a copy; on lower-case markup a Tokenizer allocates
// nothing once its attribute scratch has grown. Attrs is that scratch:
// it is valid until the next call to Next, and a caller keeping
// attributes copies the list.
type Tokenizer struct {
	s       string
	i       int
	scratch []Attr

	// Kind is the current token's kind.
	Kind TokenKind
	// Name is the tag name: lower-cased for a start tag, as written for
	// an end tag (compare it with ASCII case folding).
	Name string
	// Attrs are a start tag's attributes in document order, keys
	// lower-cased; a repeated key keeps its first position and its last
	// value.
	Attrs AttrList
	// Text is a text token's character data, or a script start tag's
	// raw text.
	Text string
	// SelfClosing reports a start tag written as <name/>.
	SelfClosing bool
}

// Reset points the tokenizer at the start of s, keeping its scratch.
func (z *Tokenizer) Reset(s string) {
	z.s, z.i = s, 0
}

// Next advances to the next token and reports whether there was one.
func (z *Tokenizer) Next() bool {
	z.Name, z.Attrs, z.Text, z.SelfClosing = "", nil, "", false
	s := z.s
	for z.i < len(s) {
		i := z.i
		lt := strings.IndexByte(s[i:], '<')
		if lt < 0 {
			return z.text(len(s))
		}
		if lt > 0 {
			return z.text(i + lt)
		}
		gt := strings.IndexByte(s[i:], '>')
		if gt < 0 {
			return z.text(len(s))
		}
		tag := s[i+1 : i+gt]
		z.i = i + gt + 1
		switch {
		case strings.HasPrefix(tag, "!--"):
			// Comment: skip to the closing marker if the '>' we found was
			// not it.
			if !strings.HasSuffix(tag, "--") {
				if end := strings.Index(s[z.i:], "-->"); end >= 0 {
					z.i += end + 3
				} else {
					z.i = len(s)
				}
			}
		case strings.HasPrefix(tag, "!"):
			// Doctype: ignore.
		case strings.HasPrefix(tag, "/"):
			z.Kind, z.Name = EndTagToken, strings.TrimSpace(tag[1:])
			return true
		default:
			if z.startTag(tag) {
				return true
			}
		}
	}
	return false
}

// text emits the input up to end as a text token.
func (z *Tokenizer) text(end int) bool {
	z.Kind, z.Text = TextToken, z.s[z.i:end]
	z.i = end
	return true
}

// startTag parses "name attr=val attr2='v'" (the text between < and >)
// into the current token; an empty tag yields none.
func (z *Tokenizer) startTag(raw string) bool {
	trimmed := strings.TrimSuffix(raw, "/")
	selfClosing := len(trimmed) < len(raw)
	raw = strings.TrimSpace(trimmed)
	if raw == "" {
		return false
	}
	name, rest := raw, ""
	for j := 0; j < len(raw); j++ {
		if c := raw[j]; c == ' ' || c == '\t' || c == '\n' || c == '\r' {
			name, rest = raw[:j], raw[j:]
			break
		}
	}
	z.Kind, z.Name, z.SelfClosing = StartTagToken, lowerASCII(name), selfClosing
	if rest != "" {
		if cap(z.scratch) < attrReserve {
			z.scratch = make([]Attr, 0, attrChunk)
		}
		z.scratch = z.scratch[:0]
		z.parseAttrs(rest)
		if len(z.scratch) > 0 {
			z.Attrs = z.scratch
		}
	}
	if z.Name == "script" {
		// Raw-text element: consume everything to </script>.
		s := z.s[z.i:]
		if end := indexFold(s, "</script>"); end >= 0 {
			z.Text = s[:end]
			z.i += end + len("</script>")
		} else {
			z.Text = s
			z.i = len(z.s)
		}
	}
	return true
}

// arenaChunk is how many elements one arena allocation holds; a typical
// corpus page has a few dozen.
const arenaChunk = 32

// elemArena hands out elements from chunked backing arrays, so a parse
// costs O(elements/arenaChunk) element allocations instead of one per
// element. Chunks are never appended past capacity, so handed-out
// pointers stay valid.
type elemArena struct {
	buf []Element
}

func (a *elemArena) new(tag string) *Element {
	if len(a.buf) == cap(a.buf) {
		a.buf = make([]Element, 0, arenaChunk)
	}
	a.buf = a.buf[:len(a.buf)+1]
	el := &a.buf[len(a.buf)-1]
	el.Tag = tag
	return el
}

// lowerASCII returns s lowercased, allocating only when s actually
// contains an upper-case ASCII letter.
func lowerASCII(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' {
			return strings.ToLower(s)
		}
	}
	return s
}

// indexFold returns the index of the first ASCII-case-insensitive
// occurrence of sep in s, without lowercasing (and thus copying) s.
func indexFold(s, sep string) int {
	if len(sep) == 0 {
		return 0
	}
	for i := 0; i+len(sep) <= len(s); i++ {
		if foldEq(s[i:i+len(sep)], sep) {
			return i
		}
	}
	return -1
}

// foldEq reports whether two equal-length strings match ignoring ASCII
// case.
func foldEq(a, b string) bool {
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}

// attrChunk is how many attributes one scratch allocation holds, and
// attrReserve the room a start tag starts with: a tag with at most
// attrReserve attributes never moves its list to a new chunk.
const (
	attrChunk   = 64
	attrReserve = 8
)

// keepAttrs hands the current start tag's attributes to the caller for
// good, so ParseHTML gives elements attribute lists carved from the
// scratch chunks without copying them: the scratch moves past the list,
// so later tags never overwrite it, and the list's capacity ends at its
// length, so a later SetAttr on the element reallocates instead of
// clobbering the next list.
func (z *Tokenizer) keepAttrs() AttrList {
	n := len(z.Attrs)
	if n == 0 {
		return nil
	}
	z.scratch = z.scratch[n:]
	return z.Attrs[:n:n]
}

// parseAttrs parses a start tag's attribute text into the scratch list.
func (z *Tokenizer) parseAttrs(s string) {
	i := 0
	for i < len(s) {
		// Skip whitespace.
		for i < len(s) && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
			i++
		}
		if i >= len(s) {
			return
		}
		// Attribute name.
		start := i
		for i < len(s) && s[i] != '=' && s[i] != ' ' && s[i] != '\t' {
			i++
		}
		name := s[start:i]
		if name == "" {
			i++
			continue
		}
		// Optional value.
		value := ""
		if i < len(s) && s[i] == '=' {
			i++
			if i < len(s) && (s[i] == '"' || s[i] == '\'') {
				quote := s[i]
				i++
				end := strings.IndexByte(s[i:], quote)
				if end < 0 {
					end = len(s) - i
				}
				value = s[i : i+end]
				i += end
				if i < len(s) {
					i++
				}
			} else {
				vstart := i
				for i < len(s) && s[i] != ' ' && s[i] != '\t' {
					i++
				}
				value = s[vstart:i]
			}
		}
		z.addAttr(lowerASCII(name), value)
	}
}

// addAttr appends one attribute to the scratch list, updating in place
// on a repeated key.
func (z *Tokenizer) addAttr(key, value string) {
	for i := range z.scratch {
		if z.scratch[i].Key == key {
			z.scratch[i].Value = value
			return
		}
	}
	z.scratch = append(z.scratch, Attr{Key: key, Value: value})
}
