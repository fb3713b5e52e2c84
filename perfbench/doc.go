package main

import (
	"fmt"
	"math/rand"
	"slices"

	"boxes/internal/order"
	"boxes/internal/xmlgen"
)

// zipfS is the skew of every target distribution in the benchmark.
const zipfS = 1.1

// tagEnt is one tag of the document as the benchmark tracks it.
type tagEnt struct {
	e         order.ElemLIDs
	start     bool
	protected bool // never deleted (the served reader's targets, the root)
}

func (t tagEnt) lid() order.LID {
	if t.start {
		return t.e.Start
	}
	return t.e.End
}

// chunkMax bounds a tagList chunk, so an insert or delete moves at most
// this many entries and locating an index scans a few hundred chunk
// lengths.
const chunkMax = 1024

// tagList is the document's tag sequence in document order, kept by the
// benchmark as the reference the labels are checked against.
type tagList struct {
	chunks [][]tagEnt
	n      int
}

// newTagList lays out the loaded tree's tags in document order; elements
// whose preorder index satisfies protect are marked protected.
func newTagList(tree *xmlgen.Tree, elems []order.ElemLIDs, protect func(i int) bool) *tagList {
	tags := tree.TagStream()
	l := &tagList{n: len(tags)}
	for off := 0; off < len(tags); off += chunkMax / 2 {
		end := min(off+chunkMax/2, len(tags))
		c := make([]tagEnt, 0, chunkMax)
		for _, t := range tags[off:end] {
			i := int(t.Elem)
			c = append(c, tagEnt{e: elems[i], start: t.Start, protected: protect(i)})
		}
		l.chunks = append(l.chunks, c)
	}
	return l
}

func (l *tagList) locate(i int) (c, off int) {
	for c = range l.chunks {
		if i < len(l.chunks[c]) {
			return c, i
		}
		i -= len(l.chunks[c])
	}
	panic(fmt.Sprintf("tagList: index %d out of range %d", i, l.n))
}

func (l *tagList) at(i int) tagEnt {
	c, off := l.locate(i)
	return l.chunks[c][off]
}

// insertElem places element e's two tags at index i, before the tag that
// was there: where InsertElementBefore puts them.
func (l *tagList) insertElem(i int, e order.ElemLIDs) {
	c, off := l.locate(i)
	ch := slices.Insert(l.chunks[c], off, tagEnt{e: e, start: true}, tagEnt{e: e})
	if len(ch) > chunkMax {
		tail := slices.Clone(ch[len(ch)/2:])
		ch = ch[:len(ch)/2]
		l.chunks = slices.Insert(l.chunks, c+1, tail)
	}
	l.chunks[c] = ch
	l.n += 2
}

func (l *tagList) remove(i int) {
	c, off := l.locate(i)
	l.chunks[c] = slices.Delete(l.chunks[c], off, off+1)
	if len(l.chunks[c]) == 0 {
		l.chunks = slices.Delete(l.chunks, c, c+1)
	}
	l.n--
}

// leafFrom returns the index of the first deletable leaf (an unprotected
// start tag directly followed by its own end tag) at or after i, wrapping
// around the document.
func (l *tagList) leafFrom(i int) (int, bool) {
	prev := l.at(i % l.n)
	for step := 1; step <= l.n; step++ {
		q := (i + step) % l.n
		cur := l.at(q)
		if q > 0 && prev.start && !prev.protected && !cur.start && cur.e == prev.e {
			return q - 1, true
		}
		prev = cur
	}
	return 0, false
}

// churn generates the update workload: inserts and deletes 50/50 at
// positions zipf-distributed over document order from a seeded base, so
// one region takes concentrated inserts and the tail scattered ones while
// the document size stays steady.
type churn struct {
	tags *tagList
	rng  *rand.Rand
	zipf *rand.Zipf
	base int
	// uniform draws positions uniformly over the document instead.
	uniform bool

	inserts, deletes int // applied
}

func newChurn(tags *tagList, seed int64) *churn {
	rng := rand.New(rand.NewSource(seed))
	return &churn{
		tags: tags,
		rng:  rng,
		zipf: rand.NewZipf(rng, zipfS, 1, uint64(tags.n-1)),
		base: rng.Intn(tags.n),
	}
}

// churnOp is one planned update: insert before the tag at pos, or delete
// the leaf element whose tags sit at pos and pos+1.
type churnOp struct {
	insert bool
	pos    int
	before order.LID
	elem   order.ElemLIDs
}

func (c *churn) next() churnOp {
	var pos int
	if c.uniform {
		pos = c.rng.Intn(c.tags.n)
	} else {
		pos = (c.base + int(c.zipf.Uint64())) % c.tags.n
	}
	if c.rng.Intn(2) == 1 {
		if q, ok := c.tags.leafFrom(pos); ok {
			return churnOp{pos: q, elem: c.tags.at(q).e}
		}
	}
	return churnOp{insert: true, pos: pos, before: c.tags.at(pos).lid()}
}

// applied records a completed op; e is the inserted element.
func (c *churn) applied(op churnOp, e order.ElemLIDs) {
	if op.insert {
		c.tags.insertElem(op.pos, e)
		c.inserts++
		return
	}
	c.tags.remove(op.pos)
	c.tags.remove(op.pos)
	c.deletes++
}

// checkOrder looks up a sample of tags in document order: every stride-th
// tag plus a window of tags from the churn's hot base. Their labels must
// increase strictly.
func (c *churn) checkOrder(lookup func(order.LID) (order.Label, error), samples, window int) error {
	n := c.tags.n
	stride := max(1, n/samples)
	pick := make(map[int]bool, samples+window)
	for i := 0; i < n; i += stride {
		pick[i] = true
	}
	for k := 0; k < window && k < n; k++ {
		pick[(c.base+k)%n] = true
	}
	idx := make([]int, 0, len(pick))
	for i := range pick {
		idx = append(idx, i)
	}
	slices.Sort(idx)
	var last order.Label
	for k, i := range idx {
		t := c.tags.at(i)
		v, err := lookup(t.lid())
		if err != nil {
			return fmt.Errorf("lookup of tag %d: %w", i, err)
		}
		if k > 0 && v <= last {
			return fmt.Errorf("labels out of document order at tag %d: %d after %d", i, v, last)
		}
		last = v
	}
	return nil
}
