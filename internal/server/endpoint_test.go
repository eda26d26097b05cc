package server_test

// Request-rejection and WSDL tests for the server endpoint, which is
// serverpool.Runtime. They live in an external test package so they
// can import serverpool, which itself imports this package.

import (
	"net"
	"strings"
	"testing"

	"bsoap/internal/core"
	"bsoap/internal/serverpool"
	"bsoap/internal/soapdec"
	"bsoap/internal/transport"
	"bsoap/internal/wire"
	"bsoap/internal/wsdl"
)

type captureSink struct{ data []byte }

func (c *captureSink) Send(bufs net.Buffers) error {
	c.data = c.data[:0]
	for _, b := range bufs {
		c.data = append(c.data, b...)
	}
	return nil
}

// sumSchema declares sum(values: double[]) -> sumResponse(total: double).
func sumSchema() *soapdec.Schema {
	return &soapdec.Schema{
		Namespace: "urn:calc",
		Op:        "sum",
		Params:    []soapdec.ParamSpec{{Name: "values", Type: wire.ArrayOf(wire.TDouble)}},
	}
}

func newSumEndpoint(opts serverpool.Options) *serverpool.Runtime {
	rt := serverpool.New(opts)
	rt.Register(sumSchema(), func() serverpool.Handler {
		resp := wire.NewMessage("urn:calc", "sumResponse")
		total := resp.AddDouble("total", 0)
		return func(req *wire.Message) (*wire.Message, error) {
			var sum float64
			for i := 0; i < req.NumLeaves(); i++ {
				sum += req.LeafDouble(i)
			}
			total.Set(sum)
			return resp, nil
		}
	})
	return rt
}

// rejectsWithAndWithoutDDS checks that body errors instead of
// dispatching, with differential deserialization off and on.
func rejectsWithAndWithoutDDS(t *testing.T, what string, body []byte) {
	t.Helper()
	for _, dds := range []bool{false, true} {
		rt := newSumEndpoint(serverpool.Options{DifferentialDeserialization: dds})
		if resp, err := rt.Handle(1, "", body); err == nil {
			t.Errorf("dds=%v: %s accepted: %s", dds, what, resp)
		}
	}
}

func TestUnknownOperationErrors(t *testing.T) {
	m := wire.NewMessage("urn:calc", "nosuch")
	m.AddInt("x", 1)
	sink := &captureSink{}
	if _, err := core.NewStub(core.Config{}, sink).Call(m); err != nil {
		t.Fatal(err)
	}
	rejectsWithAndWithoutDDS(t, "unknown operation", sink.data)
}

func TestMalformedBodyErrors(t *testing.T) {
	rejectsWithAndWithoutDDS(t, "garbage", []byte("not xml at all"))
	rejectsWithAndWithoutDDS(t, "bodyless envelope", []byte("<a><b>no body</b></a>"))
}

// TestMalformedMultiRefRejected verifies dangling references error out
// instead of dispatching garbage.
func TestMalformedMultiRefRejected(t *testing.T) {
	rejectsWithAndWithoutDDS(t, "dangling multi-ref", []byte(`<E:Envelope><E:Body><ns1:sum>`+
		`<values SOAP-ENC:arrayType="xsd:double[1]"><item href="#nope"/></values>`+
		`</ns1:sum></E:Body></E:Envelope>`))
}

// TestWSDLServedOnGET serves a generated WSDL over TCP and fetches it
// the way a discovering client does; it must parse back to the
// registered service.
func TestWSDLServedOnGET(t *testing.T) {
	rt := newSumEndpoint(serverpool.Options{})
	doc, err := wsdl.Generate(&wsdl.Service{
		Name:       "Calc",
		Namespace:  "urn:calc",
		Endpoint:   "http://example/",
		Operations: []*soapdec.Schema{sumSchema()},
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.SetWSDL(doc)

	srv, err := transport.Listen("127.0.0.1:0", transport.ServerOptions{
		Handler: rt.HTTPHandler(),
		Respond: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := transport.Fetch(srv.Addr(), "/?wsdl")
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("status %d", resp.Status)
	}
	svc, err := wsdl.Parse(resp.Body)
	if err != nil {
		t.Fatalf("served WSDL does not parse: %v", err)
	}
	if svc.Name != "Calc" || len(svc.Operations) != 1 || svc.Operations[0].Op != "sum" {
		t.Fatalf("recovered service: %+v", svc)
	}
	if !strings.Contains(string(resp.Body), "ArrayOfdouble") {
		t.Fatal("array type missing from served WSDL")
	}
}
