package relstore

import (
	"fmt"
	"sort"
	"strings"
)

// Inclusion classes (Definition 7.1) and precompiled access plans, the
// stand-in for the paper's stored procedures (§7.5.2): everything about a
// schema that Castor's bottom-clause construction needs is computed once
// per schema and reused across calls. Running without a plan recompiles
// this metadata on every call, which is the paper's "without stored
// procedures" configuration (Table 13).

// InclusionClasses partitions relation symbols into maximal sets connected
// by INDs over shared attributes. With subsetToo=false only INDs with
// equality connect relations (Definition 7.1); with subsetToo=true subset
// INDs connect as well (the §7.4 general-decomposition extension). Singleton
// classes are omitted. Classes and their members are deterministically
// ordered.
func (s *Schema) InclusionClasses(subsetToo bool) [][]string {
	parent := make(map[string]string, len(s.order))
	for _, r := range s.order {
		parent[r] = r
	}
	var find func(string) string
	find = func(x string) string {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, ind := range s.inds {
		if !ind.Equality && !subsetToo {
			continue
		}
		parent[find(ind.Left.Rel)] = find(ind.Right.Rel)
	}
	groups := make(map[string][]string)
	for _, r := range s.order {
		root := find(r)
		groups[root] = append(groups[root], r)
	}
	var out [][]string
	for _, members := range groups {
		if len(members) > 1 {
			sort.Strings(members)
			out = append(out, members)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// indEdge is one undirected IND-with-equality edge, labeled by the sorted
// attribute set on the departure side. id identifies the underlying IND so
// that the cycle search never walks straight back along the edge it
// arrived on.
type indEdge struct {
	to    string
	label string
	id    int
}

// HasCyclicINDs reports whether the schema's INDs with equality are cyclic
// in the sense of Definition 7.3: a sequence of INDs forming a relation
// cycle along which the attribute sets change. Acyclic-join decompositions
// never produce such cycles (Proposition 7.4). Schemas are small, so a DFS
// enumerating simple cycles is affordable.
func (s *Schema) HasCyclicINDs() bool {
	adj := make(map[string][]indEdge)
	addEdge := func(from, to string, attrs []string, id int) {
		l := append([]string(nil), attrs...)
		sort.Strings(l)
		adj[from] = append(adj[from], indEdge{to: to, label: strings.Join(l, "\x00"), id: id})
	}
	for id, ind := range s.inds {
		if !ind.Equality {
			continue
		}
		addEdge(ind.Left.Rel, ind.Right.Rel, ind.Left.Attrs, id)
		addEdge(ind.Right.Rel, ind.Left.Rel, ind.Right.Attrs, id)
	}
	// DFS from each relation; a path returning to its start without reusing
	// the incoming IND is a cycle, and it is cyclic per Definition 7.3 iff
	// the edge labels along it are not all identical.
	for _, start := range s.order {
		onPath := map[string]bool{start: true}
		var labels []string
		var dfs func(cur string, inEdge int) bool
		dfs = func(cur string, inEdge int) bool {
			for _, e := range adj[cur] {
				if e.id == inEdge {
					continue // no immediate backtracking along the same IND
				}
				if e.to == start && len(labels) >= 1 {
					all := append(append([]string(nil), labels...), e.label)
					if !allEqual(all) {
						return true
					}
					continue
				}
				if onPath[e.to] {
					continue
				}
				onPath[e.to] = true
				labels = append(labels, e.label)
				if dfs(e.to, e.id) {
					return true
				}
				labels = labels[:len(labels)-1]
				delete(onPath, e.to)
			}
			return false
		}
		if dfs(start, -1) {
			return true
		}
	}
	return false
}

func allEqual(ss []string) bool {
	for _, s := range ss[1:] {
		if s != ss[0] {
			return false
		}
	}
	return true
}

// PlanPartner is a precompiled IND hop: from a tuple of the source
// relation, tuples of Rel whose DstPos columns equal the source's SrcPos
// columns must be chased into the bottom clause.
type PlanPartner struct {
	// IND is the dependency this hop realizes.
	IND IND
	// Rel is the partner relation to fetch from.
	Rel string
	// SrcPos are the column positions in the source relation.
	SrcPos []int
	// DstPos are the matching column positions in the partner relation.
	DstPos []int
}

// Plan is the precompiled per-schema metadata for Castor's bottom-clause
// construction: the IND hop table and the inclusion classes. It corresponds
// to the stored procedure the paper compiles the first time Castor runs on
// a schema.
type Plan struct {
	schema   *Schema
	partners map[string][]PlanPartner
	classes  [][]string
}

// CompilePlan precomputes the IND hop table for the schema. With
// subsetINDs=false only INDs with equality are chased, in both directions
// (they are symmetric). With subsetINDs=true subset INDs are chased too,
// left to right only, per the §7.4 extension.
func CompilePlan(schema *Schema, subsetINDs bool) *Plan {
	p := &Plan{
		schema:   schema,
		partners: make(map[string][]PlanPartner),
		classes:  schema.InclusionClasses(subsetINDs),
	}
	add := func(ind IND, from, to RelAttrs) {
		fromRel, _ := schema.Relation(from.Rel)
		toRel, _ := schema.Relation(to.Rel)
		if fromRel == nil || toRel == nil {
			return
		}
		p.partners[from.Rel] = append(p.partners[from.Rel], PlanPartner{
			IND:    ind,
			Rel:    to.Rel,
			SrcPos: attrPositions(fromRel, from.Attrs),
			DstPos: attrPositions(toRel, to.Attrs),
		})
	}
	for _, ind := range schema.INDs() {
		if ind.Equality {
			add(ind, ind.Left, ind.Right)
			add(ind, ind.Right, ind.Left)
		} else if subsetINDs {
			add(ind, ind.Left, ind.Right)
		}
	}
	return p
}

// Schema returns the schema the plan was compiled for.
func (p *Plan) Schema() *Schema { return p.schema }

// Partners returns the IND hops out of the relation.
func (p *Plan) Partners(rel string) []PlanPartner { return p.partners[rel] }

// Classes returns the inclusion classes (each a sorted member list).
func (p *Plan) Classes() [][]string { return p.classes }

// Explain renders the compiled plan as an EXPLAIN-style text report: the
// inclusion classes, then, per relation in schema order, the IND hops
// bottom-clause construction will chase out of it, with the column
// positions each hop joins on. What the text shows is exactly what
// GroundBottomClause executes — the plan is the stored procedure.
func (p *Plan) Explain() string {
	var b strings.Builder
	rels := p.schema.Relations()
	fmt.Fprintf(&b, "plan: %d relations, %d INDs, %d inclusion classes\n",
		len(rels), len(p.schema.INDs()), len(p.classes))
	for ci, members := range p.classes {
		fmt.Fprintf(&b, "class %d: %s\n", ci, strings.Join(members, ", "))
	}
	for _, r := range rels {
		hops := p.partners[r.Name]
		fmt.Fprintf(&b, "%s\n", r)
		if len(hops) == 0 {
			b.WriteString("  no IND hops: frontier scan only\n")
			continue
		}
		for _, h := range hops {
			fmt.Fprintf(&b, "  chase %s via %s: cols %v -> %s cols %v\n",
				h.Rel, h.IND, h.SrcPos, h.Rel, h.DstPos)
		}
	}
	return b.String()
}
