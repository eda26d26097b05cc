// Package server holds two server-side helpers that sit beside the
// serverpool runtime: PeekOperation, which reads an envelope's
// operation name without a full parse, and Recorder, the conformance
// endpoint that keeps every accepted request body.
package server

import (
	"bytes"
	"fmt"
	"strings"

	"bsoap/internal/xsdlex"
)

// PeekOperation extracts the operation's local name without a full
// parse: it scans for the first element inside <Body>. The serverpool
// runtime shares it to key differential-deserializer templates.
func PeekOperation(body []byte) (string, error) {
	var off int
	if idx := bytes.Index(body, []byte(":Body>")); idx >= 0 {
		off = idx + len(":Body>")
	} else if idx := bytes.Index(body, []byte("<Body>")); idx >= 0 {
		off = idx + len("<Body>")
	} else {
		return "", fmt.Errorf("server: no SOAP Body")
	}
	rest := body[off:]
	i := 0
	for i < len(rest) && xsdlex.IsSpace(rest[i]) {
		i++
	}
	if i >= len(rest) || rest[i] != '<' {
		return "", fmt.Errorf("server: no operation element")
	}
	i++
	start := i
	for i < len(rest) && rest[i] != '>' && rest[i] != ' ' && rest[i] != '/' {
		i++
	}
	name := string(rest[start:i])
	if c := strings.LastIndexByte(name, ':'); c >= 0 {
		name = name[c+1:]
	}
	if name == "" {
		return "", fmt.Errorf("server: no operation element")
	}
	return name, nil
}
