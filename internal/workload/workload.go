// Package workload builds the deterministic synthetic databases the
// benchmark harness and examples run against. Each generator reproduces the
// structural property a paper claim depends on: the ship/order date
// correlation with a late tail (§4.4), project durations (§5.1), a
// star schema with referential integrity ([6]), monthly range partitions
// (§5), and a join with planted holes ([8]). All generators are seeded and
// reproducible.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"softdb/internal/engine"
	"softdb/internal/types"
)

// BulkInsert loads rows through the engine's full insert pipeline
// (constraints, indexes, the soft write guard, summary tables) without SQL
// parsing overhead: every row is validated, and the rows go in as one batch
// in one transaction (engine.Database.InsertRows). A row that fails
// validation or an enforced check fails the call, and no row of the batch
// is loaded.
func BulkInsert(db *engine.Database, table string, rows []types.Row) error {
	te, err := db.Catalog().Table(table)
	if err != nil {
		return err
	}
	validated := make([]types.Row, len(rows))
	for i, r := range rows {
		if validated[i], err = te.Def.ValidateRow(r); err != nil {
			return err
		}
	}
	return db.InsertRows(te, validated)
}

// PurchaseConfig parameterizes the purchase generator.
type PurchaseConfig struct {
	N        int
	LateFrac float64 // fraction of shipments later than 21 days (0 for ASC)
	Seed     int64
	// ShipWindowMode declares the ship-window check constraint:
	// "" = none, "soft" = ASC, "ssc" = statistical (confidence set from
	// LateFrac), "informational", "enforced".
	ShipWindowMode string
	// IndexOrderDate creates the order_date index (the access path the
	// paper's rewrite unlocks).
	IndexOrderDate bool
}

// LoadPurchase creates and populates the paper's purchase table:
// ship_date = order_date + lag, lag uniform in [0, 20] except for a
// LateFrac tail with lag in [30, 90].
func LoadPurchase(db *engine.Database, cfg PurchaseConfig) error {
	mode := ""
	switch cfg.ShipWindowMode {
	case "soft":
		mode = "CONSTRAINT ship_window CHECK (ship_date >= order_date AND ship_date <= order_date + 21) SOFT,"
	case "ssc":
		// The three-week window is statistical (the late tail violates it);
		// "shipping never precedes ordering" is an external promise, so it
		// rides along as an informational constraint.
		conf := 1 - cfg.LateFrac
		mode = fmt.Sprintf(`CONSTRAINT ship_window CHECK (ship_date <= order_date + 21) SOFT STATISTICAL CONFIDENCE %.4f,
		CONSTRAINT ship_after_order CHECK (ship_date >= order_date) INFORMATIONAL,`, conf)
	case "informational":
		mode = "CONSTRAINT ship_window CHECK (ship_date >= order_date AND ship_date <= order_date + 21) INFORMATIONAL,"
	case "enforced":
		mode = "CONSTRAINT ship_window CHECK (ship_date >= order_date AND ship_date <= order_date + 21),"
	}
	ddl := fmt.Sprintf(`CREATE TABLE purchase (
		id INT PRIMARY KEY,
		order_date DATE NOT NULL,
		ship_date DATE,
		amount FLOAT,
		%s
		CONSTRAINT amount_pos CHECK (amount >= 0) INFORMATIONAL
	)`, mode)
	if _, err := db.Exec(ddl); err != nil {
		return err
	}
	if cfg.IndexOrderDate {
		if _, err := db.Exec("CREATE INDEX idx_purchase_order_date ON purchase (order_date)"); err != nil {
			return err
		}
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	base := int64(10592) // 1999-01-01 in days since epoch
	rows := make([]types.Row, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		// Orders arrive in rough date order (the realistic clustering the
		// optimizer's CLUSTERRATIO statistic exploits): 4 orders per day
		// with a little jitter.
		order := base + int64(i/4) + int64(r.Intn(3))
		lag := int64(r.Intn(21))
		if cfg.LateFrac > 0 && r.Float64() < cfg.LateFrac {
			lag = 30 + int64(r.Intn(61))
		}
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewDate(order),
			types.NewDate(order + lag),
			types.NewFloat(float64(r.Intn(10000)) / 100),
		})
	}
	if err := BulkInsert(db, "purchase", rows); err != nil {
		return err
	}
	_, err := db.Exec("ANALYZE purchase")
	return err
}

// ProjectConfig parameterizes the project generator (§5's example).
type ProjectConfig struct {
	N        int
	LongFrac float64 // fraction of projects longer than 30 days
	Seed     int64
	// Confidence declares the duration SSC; <= 0 skips the constraint.
	Confidence float64
}

// LoadProject creates project(id, start_date, end_date) where durations
// are mostly within 30 days with a LongFrac tail up to a year.
func LoadProject(db *engine.Database, cfg ProjectConfig) error {
	con := ""
	if cfg.Confidence > 0 {
		con = fmt.Sprintf(",\n\t\tCONSTRAINT duration CHECK (end_date <= start_date + 30) SOFT STATISTICAL CONFIDENCE %.4f", cfg.Confidence)
	}
	ddl := fmt.Sprintf(`CREATE TABLE project (
		id INT PRIMARY KEY,
		start_date DATE NOT NULL,
		end_date DATE%s
	)`, con)
	if _, err := db.Exec(ddl); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	base := int64(10592)
	span := int64(cfg.N/2 + 30)
	rows := make([]types.Row, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		start := base + int64(r.Int63n(span))
		dur := int64(r.Intn(31))
		if r.Float64() < cfg.LongFrac {
			dur = 31 + int64(r.Intn(335))
		}
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewDate(start),
			types.NewDate(start + dur),
		})
	}
	if err := BulkInsert(db, "project", rows); err != nil {
		return err
	}
	_, err := db.Exec("ANALYZE project")
	return err
}

// ActualActiveOn counts projects truly active on the given day offset from
// 1999-01-01, the ground truth for cardinality-estimation error.
func ActualActiveOn(db *engine.Database, dayOffset int64) (int64, error) {
	q := fmt.Sprintf(
		"SELECT COUNT(*) FROM project WHERE start_date <= DATE '1999-01-01' + %d AND end_date >= DATE '1999-01-01' + %d",
		dayOffset, dayOffset)
	rows, err := db.Query(q)
	if err != nil {
		return 0, err
	}
	return rows[0][0].Int(), nil
}

// StarConfig parameterizes the star-schema generator.
type StarConfig struct {
	DimRows  int
	FactRows int
	Seed     int64
	// FKMode is "enforced" or "informational" ([6] uses RI either way).
	FKMode string
}

// LoadStar creates dim(id, name, category) and fact(id, dim_id, qty,
// price) with referential integrity from fact to dim.
func LoadStar(db *engine.Database, cfg StarConfig) error {
	if _, err := db.Exec(`CREATE TABLE dim (
		id INT PRIMARY KEY, name VARCHAR(20), category INT)`); err != nil {
		return err
	}
	fkSuffix := ""
	if cfg.FKMode == "informational" {
		fkSuffix = " NOT ENFORCED"
	}
	ddl := fmt.Sprintf(`CREATE TABLE fact (
		id INT PRIMARY KEY,
		dim_id INT NOT NULL,
		qty INT,
		price FLOAT,
		FOREIGN KEY (dim_id) REFERENCES dim (id)%s)`, fkSuffix)
	if _, err := db.Exec(ddl); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	dimRows := make([]types.Row, 0, cfg.DimRows)
	for i := 0; i < cfg.DimRows; i++ {
		dimRows = append(dimRows, types.Row{
			types.NewInt(int64(i)),
			types.NewString(fmt.Sprintf("dim-%d", i)),
			types.NewInt(int64(i % 17)),
		})
	}
	if err := BulkInsert(db, "dim", dimRows); err != nil {
		return err
	}
	factRows := make([]types.Row, 0, cfg.FactRows)
	for i := 0; i < cfg.FactRows; i++ {
		factRows = append(factRows, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(r.Intn(cfg.DimRows))),
			types.NewInt(int64(1 + r.Intn(50))),
			types.NewFloat(float64(r.Intn(100000)) / 100),
		})
	}
	if err := BulkInsert(db, "fact", factRows); err != nil {
		return err
	}
	if _, err := db.Exec("ANALYZE dim"); err != nil {
		return err
	}
	_, err := db.Exec("ANALYZE fact")
	return err
}

// LoadPartitionedSales creates sales_01..sales_12, each with the month
// check constraint (§5's union-all view), rowsPerMonth rows each, and the
// sales view unioning them.
func LoadPartitionedSales(db *engine.Database, rowsPerMonth int, seed int64) error {
	r := rand.New(rand.NewSource(seed))
	for m := 1; m <= 12; m++ {
		ddl := fmt.Sprintf(`CREATE TABLE sales_%02d (
			month INT NOT NULL,
			day INT,
			amount FLOAT,
			CHECK (month = %d))`, m, m)
		if _, err := db.Exec(ddl); err != nil {
			return err
		}
		rows := make([]types.Row, 0, rowsPerMonth)
		for i := 0; i < rowsPerMonth; i++ {
			rows = append(rows, types.Row{
				types.NewInt(int64(m)),
				types.NewInt(int64(1 + r.Intn(28))),
				types.NewFloat(float64(r.Intn(50000)) / 100),
			})
		}
		if err := BulkInsert(db, fmt.Sprintf("sales_%02d", m), rows); err != nil {
			return err
		}
		if _, err := db.Exec(fmt.Sprintf("ANALYZE sales_%02d", m)); err != nil {
			return err
		}
	}
	var view strings.Builder
	view.WriteString("CREATE VIEW sales AS SELECT * FROM sales_01")
	for m := 2; m <= 12; m++ {
		fmt.Fprintf(&view, " UNION ALL SELECT * FROM sales_%02d", m)
	}
	_, err := db.Exec(view.String())
	return err
}

// HolesConfig parameterizes the orders⋈lineitem hole workload.
type HolesConfig struct {
	Orders   int
	LinesPer int
	Seed     int64
	// BandLo/BandHi plant a hole: no lineitem rows exist for orders whose
	// odate falls inside [BandLo, BandHi) (as an offset in days).
	BandLo, BandHi int
}

// LoadOrdersLineitem creates orders(okey, odate) and lineitem(okey,
// shipdate, qty) where shipdate tracks odate within 90 days; orders in the
// planted date band have no lineitems, producing a large join hole over
// (odate, shipdate).
func LoadOrdersLineitem(db *engine.Database, cfg HolesConfig) error {
	if _, err := db.Exec(`CREATE TABLE orders (okey INT PRIMARY KEY, odate DATE NOT NULL)`); err != nil {
		return err
	}
	if _, err := db.Exec(`CREATE TABLE lineitem (
		lkey INT PRIMARY KEY, okey INT NOT NULL, shipdate DATE, qty INT)`); err != nil {
		return err
	}
	if _, err := db.Exec("CREATE INDEX idx_orders_odate ON orders (odate)"); err != nil {
		return err
	}
	if _, err := db.Exec("CREATE INDEX idx_lineitem_shipdate ON lineitem (shipdate)"); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	base := int64(10592)
	orderRows := make([]types.Row, 0, cfg.Orders)
	var lineRows []types.Row
	lkey := 0
	for i := 0; i < cfg.Orders; i++ {
		// Orders arrive in date order (clustered), one per day.
		off := i
		odate := base + int64(off)
		orderRows = append(orderRows, types.Row{types.NewInt(int64(i)), types.NewDate(odate)})
		if off >= cfg.BandLo && off < cfg.BandHi {
			continue // hole band: no lineitems
		}
		for l := 0; l < cfg.LinesPer; l++ {
			lineRows = append(lineRows, types.Row{
				types.NewInt(int64(lkey)),
				types.NewInt(int64(i)),
				types.NewDate(odate + int64(r.Intn(90))),
				types.NewInt(int64(1 + r.Intn(10))),
			})
			lkey++
		}
	}
	if err := BulkInsert(db, "orders", orderRows); err != nil {
		return err
	}
	if err := BulkInsert(db, "lineitem", lineRows); err != nil {
		return err
	}
	if _, err := db.Exec("ANALYZE orders"); err != nil {
		return err
	}
	_, err := db.Exec("ANALYZE lineitem")
	return err
}

// LoadDenormalized creates the denormalized order table used by the FD
// experiments: order(id, cust_id, cust_name, region, amount) where cust_id
// determines cust_name and region.
func LoadDenormalized(db *engine.Database, n, customers int, seed int64) error {
	if _, err := db.Exec(`CREATE TABLE orders_wide (
		id INT PRIMARY KEY,
		cust_id INT NOT NULL,
		cust_name VARCHAR(24),
		region INT,
		amount FLOAT)`); err != nil {
		return err
	}
	r := rand.New(rand.NewSource(seed))
	rows := make([]types.Row, 0, n)
	for i := 0; i < n; i++ {
		c := r.Intn(customers)
		rows = append(rows, types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(c)),
			types.NewString(fmt.Sprintf("cust-%d", c)),
			types.NewInt(int64(c % 7)),
			types.NewFloat(float64(r.Intn(100000)) / 100),
		})
	}
	if err := BulkInsert(db, "orders_wide", rows); err != nil {
		return err
	}
	_, err := db.Exec("ANALYZE orders_wide")
	return err
}
