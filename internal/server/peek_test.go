package server

import "testing"

func TestPeekOperation(t *testing.T) {
	cases := map[string]string{
		`<E:Envelope><E:Body><ns1:sum><v/></ns1:sum></E:Body></E:Envelope>`: "sum",
		`<E:Envelope><E:Body>` + "\n  " + `<op2/></E:Body></E:Envelope>`:    "op2",
	}
	for doc, want := range cases {
		got, err := PeekOperation([]byte(doc))
		if err != nil || got != want {
			t.Errorf("PeekOperation(%q) = %q, %v", doc, got, err)
		}
	}
	for _, doc := range []string{"", "<no-body/>", `<E:Body>`} {
		if _, err := PeekOperation([]byte(doc)); err == nil {
			t.Errorf("PeekOperation(%q) succeeded", doc)
		}
	}
}
