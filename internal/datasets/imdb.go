package datasets

import (
	"fmt"
	"strconv"

	"repro/internal/logic"
	"repro/internal/relstore"
	"repro/internal/transform"
)

// IMDb (§9.1.1, Tables 6–8): a movie database under three schemas:
//
//   - JMDB: fully normalized — movie(id,title,year), link relations
//     movies2X(id,Xid) for eleven entity kinds plus per-movie facts
//     (rating, plot, business, runningtime, altversion, certificate,
//     releasedate, akatitle, mpaarating, technical, distributor);
//   - Stanford: the five link relations with movies2X[id] = movie[id]
//     INDs with equality (genre, color, prodcompany, director, producer)
//     composed into movie — the structure of the Stanford Movies DB;
//   - Denormalized: each of the eleven movies2X links composed with its
//     entity relation (movies2director(id,directorid,name), …), the
//     paper's 11-pair composition.
//
// The target dramaDirector(director) has an exact Datalog definition —
// "directed a movie linked to the drama genre" — which is why the paper's
// Table 11 shows precision = recall = 1 for Castor on every schema.

// IMDbConfig sizes the generator.
type IMDbConfig struct {
	Movies    int
	Directors int
	Actors    int
	Genres    int
	NegPerPos int
	Seed      int64
	// Scale multiplies Movies/Directors/Actors; 0 or 1 leaves the
	// configured counts untouched.
	Scale float64
}

// DefaultIMDb is the laptop-scale configuration.
func DefaultIMDb() IMDbConfig {
	return IMDbConfig{
		Movies:    240,
		Directors: 60,
		Actors:    120,
		Genres:    6,
		NegPerPos: 2,
		Seed:      17,
	}
}

// PaperIMDb is the paper-scale preset (§8: 8–10M tuples across the
// variants). It scales the default configuration until the most
// normalized variant holds several million tuples.
func PaperIMDb() IMDbConfig {
	cfg := DefaultIMDb()
	// JMDB holds ≈6.0K tuples at the base configuration, so 1500 lands the
	// most normalized variant on ≈9.0M.
	cfg.Scale = 1500
	return cfg
}

var imdbGenres = []string{"drama", "comedy", "action", "thriller", "documentary", "horror", "romance", "scifi"}

// stanfordEntities are the five link/entity pairs whose movies2X[id] =
// movie[id] INDs hold with equality (Table 8 top) and which the Stanford
// schema composes into movie.
var stanfordEntities = []string{"genre", "color", "prodcompany", "director", "producer"}

// crewEntities are the remaining link/entity pairs: movies2X[Xid] = X[id]
// holds with equality, movies2X[id] ⊆ movie[id] is a subset IND. Together
// with the five above (and actor) they form the eleven pairs the
// Denormalized schema composes.
var crewEntities = []string{"writer", "editor", "composer", "cinematgr", "costdes", "proddes", "misc"}

// perMovieFacts are unary-per-movie relations with a text payload and a
// subset IND fact[id] ⊆ movie[id] (Table 8 bottom).
var perMovieFacts = []string{"plot", "business", "runningtime", "altversion", "mpaarating", "technical"}

// allLinkEntities returns the eleven composable link/entity pairs plus
// actor (whose link carries a character payload).
func allLinkEntities() []string {
	out := append([]string(nil), stanfordEntities...)
	return append(out, crewEntities...)
}

// IMDbJMDBSchema builds the JMDB schema of Table 6 with the INDs of
// Table 8.
func IMDbJMDBSchema() *relstore.Schema {
	s := relstore.NewSchema()
	s.MustAddRelation("movie", "id", "title", "year")
	for _, e := range allLinkEntities() {
		s.MustAddRelation("movies2"+e, "id", e+"id")
		s.MustAddRelation(e, e+"id", e+"name")
	}
	s.MustAddRelation("movies2actor", "id", "actorid", "character")
	s.MustAddRelation("actor", "actorid", "actorname", "sex")
	s.MustAddRelation("rating", "id", "rank", "votes")
	s.MustAddRelation("language", "langid", "languagename")
	s.MustAddRelation("country", "countryid", "countryname")
	s.MustAddRelation("movies2language", "id", "langid")
	s.MustAddRelation("movies2country", "id", "countryid")
	s.MustAddRelation("certificate", "id", "countryid", "cert")
	s.MustAddRelation("releasedate", "id", "countryid", "date")
	s.MustAddRelation("akatitle", "id", "langid", "akaname")
	s.MustAddRelation("distributor", "id", "distributorname")
	for _, f := range perMovieFacts {
		s.MustAddRelation(f, "id", f+"text")
	}

	// Table 8 top: movies2X[id] = movie[id] with equality for the Stanford
	// five; subset for the rest.
	for _, e := range stanfordEntities {
		s.MustAddIND("movies2"+e, []string{"id"}, "movie", []string{"id"}, true)
	}
	for _, e := range crewEntities {
		s.MustAddIND("movies2"+e, []string{"id"}, "movie", []string{"id"}, false)
	}
	// movies2X[Xid] = X[id] with equality for all eleven pairs + actor.
	for _, e := range allLinkEntities() {
		s.MustAddIND("movies2"+e, []string{e + "id"}, e, []string{e + "id"}, true)
	}
	s.MustAddIND("movies2actor", []string{"actorid"}, "actor", []string{"actorid"}, true)
	// Table 8 bottom: subset INDs into movie / country / language.
	s.MustAddIND("movies2actor", []string{"id"}, "movie", []string{"id"}, false)
	s.MustAddIND("rating", []string{"id"}, "movie", []string{"id"}, false)
	s.MustAddIND("movies2language", []string{"id"}, "movie", []string{"id"}, false)
	s.MustAddIND("movies2country", []string{"id"}, "movie", []string{"id"}, false)
	s.MustAddIND("certificate", []string{"id"}, "movie", []string{"id"}, false)
	s.MustAddIND("releasedate", []string{"id"}, "movie", []string{"id"}, false)
	s.MustAddIND("akatitle", []string{"id"}, "movie", []string{"id"}, false)
	s.MustAddIND("distributor", []string{"id"}, "movie", []string{"id"}, false)
	for _, f := range perMovieFacts {
		s.MustAddIND(f, []string{"id"}, "movie", []string{"id"}, false)
	}
	s.MustAddIND("movies2language", []string{"langid"}, "language", []string{"langid"}, false)
	s.MustAddIND("movies2country", []string{"countryid"}, "country", []string{"countryid"}, false)
	s.MustAddIND("certificate", []string{"countryid"}, "country", []string{"countryid"}, false)
	s.MustAddIND("releasedate", []string{"countryid"}, "country", []string{"countryid"}, false)
	s.MustAddIND("akatitle", []string{"langid"}, "language", []string{"langid"}, false)
	return s
}

// imdbPipelines builds JMDB→Stanford (compose the five equality links into
// movie) and JMDB→Denormalized (compose each of the eleven link/entity
// pairs, plus actor).
func imdbPipelines(jmdb *relstore.Schema) (*transform.Pipeline, *transform.Pipeline) {
	stanford := transform.NewPipeline(jmdb)
	sources := []string{"movie"}
	for _, e := range stanfordEntities {
		sources = append(sources, "movies2"+e)
	}
	stanford.MustCompose("movie", sources...)

	denorm := transform.NewPipeline(jmdb)
	for _, e := range allLinkEntities() {
		denorm.MustCompose("movies2"+e, "movies2"+e, e)
	}
	denorm.MustCompose("movies2actor", "movies2actor", "actor")
	return stanford, denorm
}

// GenerateIMDb builds the dataset under all three schemas.
func GenerateIMDb(cfg IMDbConfig) (*Dataset, error) {
	cfg.Movies = scaleCount(cfg.Movies, cfg.Scale)
	cfg.Directors = scaleCount(cfg.Directors, cfg.Scale)
	cfg.Actors = scaleCount(cfg.Actors, cfg.Scale)
	if cfg.Genres > len(imdbGenres) {
		cfg.Genres = len(imdbGenres)
	}
	if cfg.Movies < 1 || cfg.Directors < 1 || cfg.Actors < 1 || cfg.Genres < 1 {
		return nil, fmt.Errorf("datasets: IMDb needs at least one movie, director, actor and genre")
	}
	r := newRng(cfg.Seed)
	schema := IMDbJMDBSchema()
	inst := relstore.NewInstance(schema)

	for g := 0; g < cfg.Genres; g++ {
		inst.MustInsert("genre", "g"+strconv.Itoa(g), imdbGenres[g])
	}
	colors := []string{"color", "bw"}
	for c := range colors {
		inst.MustInsert("color", "col"+strconv.Itoa(c), colors[c])
	}
	companies := 12
	for p := 0; p < companies; p++ {
		inst.MustInsert("prodcompany", "pc"+strconv.Itoa(p), "studio_"+strconv.Itoa(p))
	}
	// Crew pools: one pool per crew kind, sized off the director count.
	crewPool := cfg.Directors
	for d := 0; d < cfg.Directors; d++ {
		inst.MustInsert("director", "d"+strconv.Itoa(d), "director_"+strconv.Itoa(d))
		inst.MustInsert("producer", "pr"+strconv.Itoa(d), "producer_"+strconv.Itoa(d))
	}
	for _, e := range crewEntities {
		for k := 0; k < crewPool; k++ {
			inst.MustInsert(e, e+strconv.Itoa(k), e+"_name_"+strconv.Itoa(k))
		}
	}
	sexes := []string{"m", "f"}
	for a := 0; a < cfg.Actors; a++ {
		inst.MustInsert("actor", "a"+strconv.Itoa(a), "actor_"+strconv.Itoa(a), sexes[a%2])
	}
	languages := []string{"english", "spanish", "japanese", "french"}
	for l, lang := range languages {
		inst.MustInsert("language", "lang"+strconv.Itoa(l), lang)
	}
	countries := []string{"usa", "mexico", "japan", "france", "india"}
	for c, country := range countries {
		inst.MustInsert("country", "ctry"+strconv.Itoa(c), country)
	}

	dramaDirectors := make(map[string]bool)
	for m := 0; m < cfg.Movies; m++ {
		id := "m" + strconv.Itoa(m)
		inst.MustInsert("movie", id, "movie_"+strconv.Itoa(m), "year_"+strconv.Itoa(2001+r.Intn(15)))
		g := r.Intn(cfg.Genres)
		d := r.Intn(cfg.Directors)
		// The five Stanford links: every movie has exactly one of each (the
		// equality INDs and the losslessness of the Stanford composition
		// depend on it).
		inst.MustInsert("movies2genre", id, "g"+strconv.Itoa(g))
		inst.MustInsert("movies2color", id, "col"+strconv.Itoa(r.Intn(len(colors))))
		inst.MustInsert("movies2prodcompany", id, "pc"+strconv.Itoa(r.Intn(companies)))
		inst.MustInsert("movies2director", id, "d"+strconv.Itoa(d))
		inst.MustInsert("movies2producer", id, "pr"+strconv.Itoa(r.Intn(cfg.Directors)))
		// Crew links: most movies have one of each kind.
		for _, e := range crewEntities {
			if r.Float64() < 0.8 {
				inst.MustInsert("movies2"+e, id, e+strconv.Itoa(r.Intn(crewPool)))
			}
		}
		for k := 0; k < 2+r.Intn(3); k++ {
			inst.MustInsert("movies2actor", id, "a"+strconv.Itoa(r.Intn(cfg.Actors)), "character_"+strconv.Itoa(r.Intn(500)))
		}
		// Per-movie facts and localization.
		if r.Float64() < 0.7 {
			inst.MustInsert("rating", id, "rank_"+strconv.Itoa(1+r.Intn(10)), "votes_"+strconv.Itoa(r.Intn(9)))
		}
		for _, f := range perMovieFacts {
			if r.Float64() < 0.5 {
				inst.MustInsert(f, id, f+"_text_"+strconv.Itoa(r.Intn(1000)))
			}
		}
		lang := r.Intn(len(languages))
		ctry := r.Intn(len(countries))
		inst.MustInsert("movies2language", id, "lang"+strconv.Itoa(lang))
		inst.MustInsert("movies2country", id, "ctry"+strconv.Itoa(ctry))
		if r.Float64() < 0.6 {
			inst.MustInsert("certificate", id, "ctry"+strconv.Itoa(ctry), "cert_"+strconv.Itoa(r.Intn(5)))
		}
		if r.Float64() < 0.6 {
			inst.MustInsert("releasedate", id, "ctry"+strconv.Itoa(ctry), "date_"+strconv.Itoa(r.Intn(360)))
		}
		if r.Float64() < 0.3 {
			inst.MustInsert("akatitle", id, "lang"+strconv.Itoa(r.Intn(len(languages))), "aka_"+strconv.Itoa(m))
		}
		if r.Float64() < 0.5 {
			inst.MustInsert("distributor", id, "dist_"+strconv.Itoa(r.Intn(8)))
		}
		if imdbGenres[g] == "drama" {
			dramaDirectors["d"+strconv.Itoa(d)] = true
		}
	}
	// The movies2X[Xid] = X[id] equality INDs require every entity to be
	// linked at least once; prune unlinked entity rows instead of
	// inventing links (the paper likewise removed tuples to enforce its
	// equality INDs).
	inst = pruneUnlinkedEntities(schema, inst)
	if err := inst.Validate(); err != nil {
		return nil, fmt.Errorf("datasets: IMDb generator broke its constraints: %w", err)
	}

	// Exact labels (no noise: Table 11 relies on the exact definition).
	var pos, neg []logic.Atom
	for d := 0; d < cfg.Directors; d++ {
		id := "d" + strconv.Itoa(d)
		if inst.Table("director").TuplesWith(map[int]string{0: id}) == nil {
			continue // pruned (never directed anything)
		}
		e := logic.GroundAtom("dramaDirector", id)
		if dramaDirectors[id] {
			pos = append(pos, e)
		} else {
			neg = append(neg, e)
		}
	}
	if cfg.NegPerPos > 0 {
		neg = sampleExamples(r, neg, cfg.NegPerPos*len(pos))
	}

	stanford, denorm := imdbPipelines(schema)
	iS, err := stanford.Apply(inst)
	if err != nil {
		return nil, fmt.Errorf("datasets: IMDb Stanford: %w", err)
	}
	iD, err := denorm.Apply(inst)
	if err != nil {
		return nil, fmt.Errorf("datasets: IMDb Denormalized: %w", err)
	}

	return &Dataset{
		Name: "IMDb",
		Variants: []*Variant{
			{Name: "JMDB", Schema: schema, Instance: inst},
			{Name: "Stanford", Schema: stanford.To(), Instance: iS},
			{Name: "Denormalized", Schema: denorm.To(), Instance: iD},
		},
		Target: &relstore.Relation{Name: "dramaDirector", Attrs: []string{"directorid"}},
		Pos:    pos,
		Neg:    neg,
		// Value attributes are the low-cardinality categorical columns
		// ('#'-constants in classic ILP modes). Unique descriptive strings
		// — names, titles, characters, dates — are variablized like entity
		// ids: keeping them as constants would make every bottom-clause
		// literal mentioning them unsatisfiable for any other example.
		// colorname stays variablized: with only two values shared by every
		// movie through one entity row each, a blocked color constant would
		// cascade through the equality INDs into every movie instance of
		// the clause at once.
		ValueAttrs: map[string]bool{
			"genrename": true, "sex": true,
			"languagename": true, "countryname": true, "cert": true,
		},
	}, nil
}

// pruneUnlinkedEntities drops entity rows never referenced by a link
// relation, so the equality INDs of Table 8 hold.
func pruneUnlinkedEntities(schema *relstore.Schema, inst *relstore.Instance) *relstore.Instance {
	out := relstore.NewInstance(schema)
	linked := func(link string) map[string]bool {
		m := make(map[string]bool)
		for _, tp := range inst.Table(link).Tuples() {
			m[tp[1]] = true // the Xid column of every movies2X relation
		}
		return m
	}
	keep := map[string]map[string]bool{}
	for _, e := range allLinkEntities() {
		keep[e] = linked("movies2" + e)
	}
	keep["actor"] = linked("movies2actor")
	for _, rel := range schema.Relations() {
		for _, tp := range inst.Table(rel.Name).Tuples() {
			if m, ok := keep[rel.Name]; ok && !m[tp[0]] {
				continue
			}
			out.MustInsert(rel.Name, tp...)
		}
	}
	return out
}
