-- Observability smoke workload: exercises the query path (cache miss then
-- hit), a soft-constraint rewrite (predicate introduction over the soft
-- ship-window check), and EXPLAIN ANALYZE, so the /metrics endpoint has
-- non-zero counters to serve. Used by the CI obs-smoke job.
CREATE TABLE purchase (
    id INT PRIMARY KEY,
    order_date DATE NOT NULL,
    ship_date DATE,
    CONSTRAINT ship_window CHECK (ship_date >= order_date AND ship_date <= order_date + 21) SOFT
);
CREATE INDEX idx_order ON purchase (order_date);
INSERT INTO purchase VALUES
    (1, DATE '1999-01-01', DATE '1999-01-04'),
    (2, DATE '1999-01-05', DATE '1999-01-09'),
    (3, DATE '1999-01-09', DATE '1999-01-15'),
    (4, DATE '1999-01-14', DATE '1999-01-20'),
    (5, DATE '1999-01-20', DATE '1999-01-28'),
    (6, DATE '1999-01-27', DATE '1999-02-05'),
    (7, DATE '1999-02-03', DATE '1999-02-10'),
    (8, DATE '1999-02-10', DATE '1999-02-18'),
    (9, DATE '1999-02-17', DATE '1999-02-26'),
    (10, DATE '1999-02-24', DATE '1999-03-05');
ANALYZE purchase;
SELECT id FROM purchase WHERE ship_date = DATE '1999-02-18';
SELECT id FROM purchase WHERE ship_date = DATE '1999-02-18';
SELECT COUNT(*) AS n FROM purchase WHERE order_date >= DATE '1999-01-15';
EXPLAIN ANALYZE SELECT id FROM purchase WHERE ship_date = DATE '1999-02-18';
-- A page freezes only once it is full, so the frozen-page counters need a
-- table that fills pages with few rows: eight VARCHAR columns put 18 rows on
-- a page, and 40 rows make two full (freezable) pages plus a partial tail.
-- The batched scan below freezes them and images the qty column.
CREATE TABLE audit_wide (id INT PRIMARY KEY, a VARCHAR(8), b VARCHAR(8), c VARCHAR(8), d VARCHAR(8),
    e VARCHAR(8), f VARCHAR(8), g VARCHAR(8), h VARCHAR(8), qty INT);
INSERT INTO audit_wide (id, qty) VALUES
    (1, 5), (2, 6), (3, 7), (4, 8), (5, 9), (6, 1), (7, 2), (8, 3), (9, 4), (10, 5),
    (11, 6), (12, 7), (13, 8), (14, 9), (15, 1), (16, 2), (17, 3), (18, 4), (19, 5), (20, 6),
    (21, 7), (22, 8), (23, 9), (24, 1), (25, 2), (26, 3), (27, 4), (28, 5), (29, 6), (30, 7),
    (31, 8), (32, 9), (33, 1), (34, 2), (35, 3), (36, 4), (37, 5), (38, 6), (39, 7), (40, 8);
SELECT COUNT(*) AS n, SUM(qty) AS s FROM audit_wide WHERE qty > 3;
-- Exercise the constraint-economy ledger surface so the smoke job can
-- assert the SQL path works alongside the REPL \constraints command.
SHOW CONSTRAINTS ECONOMY
