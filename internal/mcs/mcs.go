// Package mcs is a miniature Metadata Catalog Service (paper §3.4): a
// service managing metadata attributes of files produced by
// data-intensive applications. A general metadata schema fixes the
// attributes of every entry, so every add/query request has the same
// SOAP payload shape — the perfect-structural-match traffic the paper
// highlights. The paper's MySQL backend is replaced by an in-memory
// indexed store (the payload shape, not the storage engine, is what the
// experiments exercise).
package mcs

import (
	"fmt"
	"sort"
	"sync"

	"bsoap/internal/serverpool"
	"bsoap/internal/soapdec"
	"bsoap/internal/wire"
)

// Namespace is the MCS service namespace.
const Namespace = "urn:mcs"

// Catalog is the in-memory metadata store: logical file name → attribute
// values under a fixed schema. All operations are safe for concurrent
// use — the serverpool runtime dispatches handlers from many replicas
// at once against one shared catalog.
type Catalog struct {
	mu     sync.Mutex
	schema []string // attribute names, fixed at construction
	byName map[string][]string
	// byAttr[i][value] = set of logical names with schema[i] == value.
	byAttr []map[string]map[string]bool
}

// NewCatalog creates a catalog over the given attribute schema.
func NewCatalog(schema []string) *Catalog {
	if len(schema) == 0 {
		panic("mcs: empty schema")
	}
	c := &Catalog{
		schema: append([]string(nil), schema...),
		byName: make(map[string][]string),
		byAttr: make([]map[string]map[string]bool, len(schema)),
	}
	for i := range c.byAttr {
		c.byAttr[i] = make(map[string]map[string]bool)
	}
	return c
}

// Schema returns the attribute names.
func (c *Catalog) Schema() []string { return c.schema }

// Len reports the number of entries.
func (c *Catalog) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.byName)
}

// attrIndex resolves an attribute name.
func (c *Catalog) attrIndex(attr string) (int, error) {
	for i, a := range c.schema {
		if a == attr {
			return i, nil
		}
	}
	return 0, fmt.Errorf("mcs: attribute %q not in schema", attr)
}

// Add inserts or replaces the entry for name. values must match the
// schema length.
func (c *Catalog) Add(name string, values []string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(values) != len(c.schema) {
		return fmt.Errorf("mcs: %d values for %d-attribute schema", len(values), len(c.schema))
	}
	if old, ok := c.byName[name]; ok {
		c.unindex(name, old)
	}
	stored := append([]string(nil), values...)
	c.byName[name] = stored
	for i, v := range stored {
		set := c.byAttr[i][v]
		if set == nil {
			set = make(map[string]bool)
			c.byAttr[i][v] = set
		}
		set[name] = true
	}
	return nil
}

// Delete removes an entry, reporting whether it existed.
func (c *Catalog) Delete(name string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	vals, ok := c.byName[name]
	if !ok {
		return false
	}
	c.unindex(name, vals)
	delete(c.byName, name)
	return true
}

func (c *Catalog) unindex(name string, vals []string) {
	for i, v := range vals {
		if set := c.byAttr[i][v]; set != nil {
			delete(set, name)
			if len(set) == 0 {
				delete(c.byAttr[i], v)
			}
		}
	}
}

// Get returns the attribute values of name. The returned slice is the
// catalog's storage and must not be modified.
func (c *Catalog) Get(name string) ([]string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.byName[name]
	return v, ok
}

// Query returns the logical names whose attribute attr equals value,
// sorted for determinism.
func (c *Catalog) Query(attr, value string) ([]string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	i, err := c.attrIndex(attr)
	if err != nil {
		return nil, err
	}
	set := c.byAttr[i][value]
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out, nil
}

// --- SOAP binding -----------------------------------------------------

// QueryPageSize fixes the response shape: a query response always
// carries this many name slots (empty strings pad short result pages),
// so consecutive responses are perfect structural matches for the
// server's differential response stub.
const QueryPageSize = 16

// AddSchema is the mcsAdd operation: logicalName plus one string array
// holding the schema's attribute values.
func AddSchema() *soapdec.Schema {
	return &soapdec.Schema{
		Namespace: Namespace,
		Op:        "mcsAdd",
		Params: []soapdec.ParamSpec{
			{Name: "logicalName", Type: wire.TString},
			{Name: "values", Type: wire.ArrayOf(wire.TString)},
		},
	}
}

// QuerySchema is the mcsQuery operation: attribute name and value.
func QuerySchema() *soapdec.Schema {
	return &soapdec.Schema{
		Namespace: Namespace,
		Op:        "mcsQuery",
		Params: []soapdec.ParamSpec{
			{Name: "attribute", Type: wire.TString},
			{Name: "value", Type: wire.TString},
		},
	}
}

// DeleteSchema is the mcsDelete operation.
func DeleteSchema() *soapdec.Schema {
	return &soapdec.Schema{
		Namespace: Namespace,
		Op:        "mcsDelete",
		Params:    []soapdec.ParamSpec{{Name: "logicalName", Type: wire.TString}},
	}
}

// addFactory builds an mcsAdd handler with its own reused response
// message (fixed shape → structural matches on the response stub).
func addFactory(c *Catalog) serverpool.HandlerFactory {
	return func() serverpool.Handler {
		addResp := wire.NewMessage(Namespace, "mcsAddResponse")
		addOK := addResp.AddBool("ok", true)
		return func(req *wire.Message) (*wire.Message, error) {
			name := req.LeafString(0)
			vals := make([]string, req.NumLeaves()-1)
			for i := range vals {
				vals[i] = req.LeafString(i + 1)
			}
			err := c.Add(name, vals)
			addOK.Set(err == nil)
			if err != nil {
				return nil, err
			}
			return addResp, nil
		}
	}
}

// queryFactory builds an mcsQuery handler with its own padded response
// page.
func queryFactory(c *Catalog) serverpool.HandlerFactory {
	return func() serverpool.Handler {
		queryResp := wire.NewMessage(Namespace, "mcsQueryResponse")
		count := queryResp.AddInt("count", 0)
		page := queryResp.AddStringArray("names", QueryPageSize)
		return func(req *wire.Message) (*wire.Message, error) {
			names, err := c.Query(req.LeafString(0), req.LeafString(1))
			if err != nil {
				return nil, err
			}
			count.Set(int32(len(names)))
			for i := 0; i < QueryPageSize; i++ {
				if i < len(names) {
					page.Set(i, names[i])
				} else {
					page.Set(i, "")
				}
			}
			return queryResp, nil
		}
	}
}

// deleteFactory builds an mcsDelete handler.
func deleteFactory(c *Catalog) serverpool.HandlerFactory {
	return func() serverpool.Handler {
		delResp := wire.NewMessage(Namespace, "mcsDeleteResponse")
		existed := delResp.AddBool("existed", false)
		return func(req *wire.Message) (*wire.Message, error) {
			existed.Set(c.Delete(req.LeafString(0)))
			return delResp, nil
		}
	}
}

// BindRuntime registers the MCS operations on the concurrent serverpool
// runtime: every replica gets private response messages, all sharing
// the one catalog (which locks internally).
func BindRuntime(rt *serverpool.Runtime, c *Catalog) {
	rt.Register(AddSchema(), addFactory(c))
	rt.Register(QuerySchema(), queryFactory(c))
	rt.Register(DeleteSchema(), deleteFactory(c))
}
