package datagen

import (
	"math/rand"
	"strconv"

	"tatooine/internal/relstore"
	"tatooine/internal/value"
)

// GenINSEE builds the INSEE-like curated relational database of the
// mixed instance: departments, unemployment statistics, election
// results per department and party, the agriculture production table
// the paper cites, and an endpoints table whose URIs support dynamic
// source discovery.
func GenINSEE(rng *rand.Rand, cfg Config, endpointURIs []string) (*relstore.Database, error) {
	db := relstore.NewDatabase("insee")
	deptFK := []relstore.ForeignKey{{Column: "dept", RefTable: "departements", RefColumn: "code"}}
	var tables []*relstore.Table
	for _, s := range []relstore.Schema{
		{Name: "departements", PrimaryKey: []string{"code"}, Columns: []relstore.Column{
			{Name: "code", Type: value.String}, {Name: "name", Type: value.String},
			{Name: "population", Type: value.Int}}},
		{Name: "chomage", ForeignKeys: deptFK, Columns: []relstore.Column{
			{Name: "dept", Type: value.String}, {Name: "annee", Type: value.Int}, {Name: "taux", Type: value.Float}}},
		{Name: "resultats", ForeignKeys: deptFK, Columns: []relstore.Column{
			{Name: "dept", Type: value.String}, {Name: "annee", Type: value.Int},
			{Name: "parti", Type: value.String}, {Name: "voix", Type: value.Int}}},
		{Name: "agriculture", Columns: []relstore.Column{
			{Name: "annee", Type: value.Int}, {Name: "filiere", Type: value.String},
			{Name: "production", Type: value.Float}, {Name: "valeur", Type: value.Float}}},
		{Name: "endpoints", Columns: []relstore.Column{
			{Name: "region", Type: value.String}, {Name: "uri", Type: value.String}}},
	} {
		t, err := db.CreateTable(s)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	departements, chomage, resultats, agriculture, endpoints := tables[0], tables[1], tables[2], tables[3], tables[4]

	for _, d := range Departments {
		pop := 300000 + rng.Intn(2_000_000)
		if err := departements.Insert(value.Row{
			value.NewString(d[0]), value.NewString(d[1]), value.NewInt(int64(pop))}); err != nil {
			return nil, err
		}
		for _, year := range []int{2014, 2015, 2016} {
			taux := 6 + rng.Float64()*6
			if err := chomage.Insert(value.Row{
				value.NewString(d[0]), value.NewInt(int64(year)), decimal(taux, 2)}); err != nil {
				return nil, err
			}
			for _, p := range Parties {
				voix := 10000 + rng.Intn(500000)
				if err := resultats.Insert(value.Row{value.NewString(d[0]), value.NewInt(int64(year)),
					value.NewString(p.ID), value.NewInt(int64(voix))}); err != nil {
					return nil, err
				}
			}
		}
	}
	for _, f := range []string{"céréales", "élevage", "viticulture", "maraîchage", "lait"} {
		for _, year := range []int{2014, 2015} {
			production := 100 + rng.Float64()*900
			valeur := 50 + rng.Float64()*500
			if err := agriculture.Insert(value.Row{value.NewInt(int64(year)), value.NewString(f),
				decimal(production, 1), decimal(valeur, 1)}); err != nil {
				return nil, err
			}
		}
	}
	for i, uri := range endpointURIs {
		if err := endpoints.Insert(value.Row{
			value.NewString("region" + strconv.Itoa(i+1)), value.NewString(uri)}); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// decimal is x rounded to prec decimal places, as a FLOAT cell: the
// tables publish their figures at that precision.
func decimal(x float64, prec int) value.Value {
	f, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'f', prec, 64), 64)
	return value.NewFloat(f)
}

// GenRegionalDB builds one small regional statistics database, used as
// a dynamically-discovered source.
func GenRegionalDB(rng *rand.Rand, name string) (*relstore.Database, error) {
	db := relstore.NewDatabase(name)
	stats, err := db.CreateTable(relstore.Schema{Name: "stats", Columns: []relstore.Column{
		{Name: "indicator", Type: value.String}, {Name: "val", Type: value.Int}}})
	if err != nil {
		return nil, err
	}
	for _, ind := range []string{"population", "communes", "entreprises"} {
		if err := stats.Insert(value.Row{
			value.NewString(ind), value.NewInt(int64(100 + rng.Intn(100000)))}); err != nil {
			return nil, err
		}
	}
	return db, nil
}
