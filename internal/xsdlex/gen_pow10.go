//go:build ignore

// gen_pow10 writes pow10tab.go, the 126-bit power-of-ten table the
// shortest-digit double encoder multiplies by. Run it with
//
//	go generate ./internal/xsdlex
//
// For each k in [minK, maxK] the entry is g = floor(10^-k · 2^(125-f)) + 1
// with f = floor(-k · log2 10), so 2^125 ≤ g-1 < 2^126; it is stored as
// the 63-bit halves {g1, g0}, g = g1·2^63 + g0 (Giulietti's Schubfach,
// section 9.8.3).
package main

import (
	"bytes"
	"fmt"
	"go/format"
	"log"
	"math/big"
	"os"
)

const minK, maxK = -324, 292

func main() {
	var b bytes.Buffer
	b.WriteString(`// Code generated by gen_pow10.go; DO NOT EDIT.

package xsdlex

// g126 holds, for k in [minK, maxK], g = floor(10^-k · 2^(125-f)) + 1
// with f = floor(-k · log2 10), as 63-bit halves {g1, g0}. It is a
// constant literal: nothing is computed at start-up or on first use.
var g126 = [maxK - minK + 1][2]uint64{
`)
	mask := new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 63), big.NewInt(1))
	for k := minK; k <= maxK; k++ {
		g := g126(k)
		g1 := new(big.Int).Rsh(g, 63)
		g0 := new(big.Int).And(g, mask)
		fmt.Fprintf(&b, "\t{%#016x, %#016x}, // %d\n", g1.Uint64(), g0.Uint64(), k)
	}
	b.WriteString("}\n")
	src, err := format.Source(b.Bytes())
	if err != nil {
		log.Fatal(err)
	}
	if err := os.WriteFile("pow10tab.go", src, 0o644); err != nil {
		log.Fatal(err)
	}
}

// g126 returns floor(10^-k · 2^(125-f)) + 1, f = floor(-k · log2 10),
// exactly. With p = 10^|k|: f is bitlen(p)-1 for -k ≥ 0, and -bitlen(p)
// for -k < 0 (p > 1 is never a power of two).
func g126(k int) *big.Int {
	p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(k))), nil)
	var g *big.Int
	if k <= 0 {
		g = shift(p, 125-(p.BitLen()-1))
	} else {
		g = new(big.Int).Quo(new(big.Int).Lsh(big.NewInt(1), uint(125+p.BitLen())), p)
	}
	return g.Add(g, big.NewInt(1))
}

func shift(x *big.Int, n int) *big.Int {
	if n >= 0 {
		return new(big.Int).Lsh(x, uint(n))
	}
	return new(big.Int).Rsh(x, uint(-n))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
