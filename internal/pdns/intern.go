package pdns

// Sym is a dense identifier for an interned string. Symbols are only
// meaningful relative to the Symtab that issued them.
type Sym uint32

// Symtab is a string intern table mapping FQDNs and rdata values to dense
// symbols. It carries no global state: every batch producer owns its own
// table, so shards never contend and never share symbol spaces.
//
// Symbol IDs are assigned in insertion order. That is the determinism rule
// the golden artifacts rely on (DESIGN #26): because each emission shard
// walks its functions in population (FQDN-sorted) order and each function's
// records are a pure stream of its (seed, FQDN) RNG, the i-th distinct
// string a shard sees — and therefore its symbol — is identical from run to
// run for a fixed worker count. Nothing downstream persists raw symbols;
// they are resolved back to strings before anything ordered or hashed is
// produced, which is why artifacts stay bit-identical across worker counts
// even though the symbol spaces differ.
//
// A Symtab is not safe for concurrent use; confine each table to one
// goroutine (the parallel emitters allocate one per shard).
type Symtab struct {
	ids  map[string]Sym
	strs []string
}

// NewSymtab builds an empty intern table.
func NewSymtab() *Symtab {
	return &Symtab{ids: make(map[string]Sym)}
}

// Intern returns the symbol for s, assigning the next ID on first sight.
func (t *Symtab) Intern(s string) Sym {
	if sym, ok := t.ids[s]; ok {
		return sym
	}
	sym := Sym(len(t.strs))
	t.ids[s] = sym
	t.strs = append(t.strs, s)
	return sym
}

// Lookup resolves a symbol back to its string. Unknown symbols resolve to
// the empty string rather than panicking, so a batch referencing a foreign
// table degrades into records that fail validation instead of crashing.
func (t *Symtab) Lookup(sym Sym) string {
	if int(sym) >= len(t.strs) {
		return ""
	}
	return t.strs[sym]
}

// Len returns the number of interned strings (also the next symbol ID).
func (t *Symtab) Len() int { return len(t.strs) }
