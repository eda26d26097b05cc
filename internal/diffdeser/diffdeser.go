// Package diffdeser implements differential deserialization, the
// server-side mirror of bSOAP proposed in the paper's future work (§6):
// storing messages at the SOAP server suggests the structure of future
// arrivals, letting the server avoid complete parsing.
//
// The deserializer keeps, per operation, the raw bytes and parse result
// of the last message, plus each scalar leaf's variable byte region
// (value + floating closing tag + padding, recorded by soapdec). A new
// message of identical length is diffed region by region: static regions
// (all markup) must match byte-for-byte; changed leaf regions are
// re-lexed locally — a handful of bytes — instead of re-running the full
// parser. Any mismatch falls back to a full parse that also refreshes
// the template.
package diffdeser

import (
	"bytes"
	"fmt"

	"bsoap/internal/replica"
	"bsoap/internal/soapdec"
	"bsoap/internal/wire"
	"bsoap/internal/xsdlex"
)

// Info reports how one Decode was served.
type Info struct {
	// FullParse is set when the whole envelope was parsed.
	FullParse bool
	// ValuesReparsed counts leaf regions re-lexed on the fast path.
	ValuesReparsed int
	// Reason explains why a full parse happened ("" on the fast path).
	Reason string
}

// template is the stored last message for one operation.
type template struct {
	body   []byte
	msg    *wire.Message
	ranges []soapdec.LeafRange
}

// MaxTemplatesPerKey bounds how many structurally distinct message
// templates are retained per key — the server-side analogue of the
// paper's "multiple templates per remote service" future work, letting
// a client that alternates between a few message shapes keep hitting
// the fast path.
const MaxTemplatesPerKey = 4

// DefaultMaxKeys bounds how many distinct operation keys a deserializer
// retains (each holding up to MaxTemplatesPerKey templates). Keys are
// evicted least-recently-used, mirroring core.Store's per-op signature
// LRU, so a peer cycling through many operations cannot grow the
// deserializer without bound.
const DefaultMaxKeys = 64

// Deserializer is the stateful server-side decoder. Not safe for
// concurrent use; guard it per connection or with the server's dispatch
// lock.
type Deserializer struct {
	lookup    soapdec.Lookup
	keys      *replica.LRU[string, *keyTemplates] // the tree's one LRU
	maxKeys   int
	evictions int64
	size      int64 // resident bytes, maintained incrementally
	// staged is tryFast's scratch list of re-lexed values awaiting
	// commit, reused across calls so the warm path never allocates.
	staged []staged
}

// staged is one re-lexed leaf value; the field read is chosen by the
// leaf's kind.
type staged struct {
	leaf int
	i    int32
	d    float64
	b    bool
	s    string
}

// keyTemplates is one operation key's template list, LRU front first.
type keyTemplates struct {
	list []*template
}

// New returns a deserializer resolving operations through lookup, with
// the key count bounded at DefaultMaxKeys.
func New(lookup soapdec.Lookup) *Deserializer {
	return NewBounded(lookup, DefaultMaxKeys)
}

// NewBounded returns a deserializer retaining at most maxKeys operation
// keys (values < 1 mean DefaultMaxKeys).
func NewBounded(lookup soapdec.Lookup, maxKeys int) *Deserializer {
	if maxKeys < 1 {
		maxKeys = DefaultMaxKeys
	}
	return &Deserializer{
		lookup:  lookup,
		keys:    replica.NewLRU[string, *keyTemplates](),
		maxKeys: maxKeys,
	}
}

// Evictions reports how many operation keys the LRU bound has evicted.
func (d *Deserializer) Evictions() int64 { return d.evictions }

// SizeBytes reports the deserializer's resident cost: stored message
// bodies plus a fixed estimate per template for the parsed message and
// its leaf ranges. Maintained incrementally, so reading it is free —
// the server runtime feeds it to the replica registry's byte budget.
func (d *Deserializer) SizeBytes() int { return int(d.size) }

// templateCost estimates one template's resident bytes: the body copy,
// the parsed message's leaf storage, and the range table.
func templateCost(t *template) int64 {
	const perRange = 16 // two ints per soapdec.LeafRange
	const fixed = 256   // template struct, message header
	return int64(cap(t.body)) + int64(len(t.ranges))*perRange + fixed
}

// noteKey moves key to the front of the key LRU, inserting it when new
// and evicting the least recently used key (and its templates) beyond
// maxKeys.
func (d *Deserializer) noteKey(key string, kt *keyTemplates) {
	if _, ok := d.keys.Get(key); ok {
		return
	}
	d.keys.PushFront(key, kt)
	if d.keys.Len() > d.maxKeys {
		if _, victim, ok := d.keys.RemoveTail(); ok {
			for _, t := range victim.list {
				d.size -= templateCost(t)
			}
			d.evictions++
		}
	}
}

// Decode parses body, differentially when a previous message for key
// had identical framing. The returned message is owned by the
// deserializer and valid until the next Decode with the same key.
func (d *Deserializer) Decode(key string, body []byte) (*wire.Message, Info, error) {
	kt, ok := d.keys.Peek(key)
	if !ok || len(kt.list) == 0 {
		return d.fullParse(key, body, "no template")
	}
	reason := "length mismatch"
	for idx, tpl := range kt.list {
		if len(body) != len(tpl.body) {
			continue
		}
		msg, info, ok, why := d.tryFast(tpl, body)
		if !ok {
			reason = why
			continue
		}
		// Move the hit to the LRU front (template within the key, and
		// the key within the deserializer).
		if idx != 0 {
			copy(kt.list[1:idx+1], kt.list[0:idx])
			kt.list[0] = tpl
		}
		d.keys.Touch(key)
		return msg, info, nil
	}
	return d.fullParse(key, body, reason)
}

// tryFast attempts the differential decode of body against one
// template: static regions must match byte-for-byte, changed leaf
// regions are re-lexed in place.
func (d *Deserializer) tryFast(tpl *template, body []byte) (*wire.Message, Info, bool, string) {
	info := Info{}
	prev := 0
	// First verify all static regions; only then mutate the message, so
	// a mismatching template is left untouched for other candidates.
	for _, r := range tpl.ranges {
		if !bytes.Equal(body[prev:r.Start], tpl.body[prev:r.Start]) {
			return nil, info, false, "markup changed"
		}
		prev = r.End
	}
	if !bytes.Equal(body[prev:], tpl.body[prev:]) {
		return nil, info, false, "trailing markup changed"
	}
	// Validate and parse every changed region before mutating anything:
	// a failure mid-way must leave the template (message and bytes)
	// exactly as it was, or a later fast-path hit against the unchanged
	// tpl.body baseline would serve stale values.
	d.staged = d.staged[:0]
	for i, r := range tpl.ranges {
		if bytes.Equal(body[r.Start:r.End], tpl.body[r.Start:r.End]) {
			continue
		}
		u, err := relexRegion(tpl.msg, i, body[r.Start:r.End])
		if err != nil {
			return nil, info, false, err.Error()
		}
		d.staged = append(d.staged, u)
	}
	for _, u := range d.staged {
		switch tpl.msg.LeafType(u.leaf).Kind {
		case wire.Int:
			tpl.msg.SetLeafInt(u.leaf, u.i)
		case wire.Double:
			tpl.msg.SetLeafDouble(u.leaf, u.d)
		case wire.Bool:
			tpl.msg.SetLeafBool(u.leaf, u.b)
		case wire.String:
			tpl.msg.SetLeafString(u.leaf, u.s)
		}
		info.ValuesReparsed++
	}
	// Adopt the new bytes as the template for the next arrival.
	tpl.body = append(tpl.body[:0], body...)
	return tpl.msg, info, true, ""
}

// relexRegion re-parses one variable region: VALUE</tag>␣␣… — the value
// text up to the first '<', the expected closing tag, then whitespace —
// and returns the parsed value without mutating the message. Only a
// string value allocates: the closing tag is compared in place, and the
// scalar parsers do not retain the converted text, so its conversion
// stays on the stack.
func relexRegion(msg *wire.Message, leaf int, seg []byte) (staged, error) {
	u := staged{leaf: leaf}
	lt := bytes.IndexByte(seg, '<')
	if lt < 0 {
		return u, fmt.Errorf("leaf %d: no closing tag in region", leaf)
	}
	rest := seg[lt:] // starts with '<'
	tag := msg.LeafTag(leaf)
	end := len("</") + len(tag) + len(">")
	if len(rest) < end || rest[1] != '/' || string(rest[2:end-1]) != tag || rest[end-1] != '>' {
		return u, fmt.Errorf("leaf %d: closing tag changed", leaf)
	}
	for _, b := range rest[end:] {
		if !xsdlex.IsSpace(b) {
			return u, fmt.Errorf("leaf %d: non-whitespace padding", leaf)
		}
	}
	raw := seg[:lt]
	var err error
	switch t := msg.LeafType(leaf); t.Kind {
	case wire.Int:
		u.i, err = xsdlex.ParseInt(string(raw))
	case wire.Double:
		u.d, err = xsdlex.ParseDouble(string(raw))
	case wire.Bool:
		u.b, err = xsdlex.ParseBool(string(raw))
	case wire.String:
		u.s, err = xsdlex.UnescapeText(string(raw))
	default:
		err = fmt.Errorf("soapdec: non-scalar type %v", t.Kind)
	}
	if err != nil {
		return u, fmt.Errorf("leaf %d: %w", leaf, err)
	}
	return u, nil
}

// fullParse runs the complete schema-driven parse and refreshes the
// template for key.
func (d *Deserializer) fullParse(key string, body []byte, reason string) (*wire.Message, Info, error) {
	res, err := soapdec.Decode(body, d.lookup, true)
	if err != nil {
		return nil, Info{FullParse: true, Reason: reason}, err
	}
	tpl := &template{
		body:   append([]byte(nil), body...),
		msg:    res.Msg,
		ranges: res.Ranges,
	}
	kt, ok := d.keys.Peek(key)
	if !ok {
		kt = &keyTemplates{}
	}
	kt.list = append([]*template{tpl}, kt.list...)
	d.size += templateCost(tpl)
	if len(kt.list) > MaxTemplatesPerKey {
		for _, dropped := range kt.list[MaxTemplatesPerKey:] {
			d.size -= templateCost(dropped)
		}
		kt.list = kt.list[:MaxTemplatesPerKey]
	}
	d.noteKey(key, kt)
	return res.Msg, Info{FullParse: true, Reason: reason}, nil
}

// KeyCount reports how many operation keys are resident.
func (d *Deserializer) KeyCount() int { return d.keys.Len() }

// TemplateCount reports how many templates are resident (all keys).
func (d *Deserializer) TemplateCount() int {
	n := 0
	d.keys.FromFront(func(_ string, kt *keyTemplates) bool {
		n += len(kt.list)
		return true
	})
	return n
}
