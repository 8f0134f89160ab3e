package repro.bench

import repro.SparkSpec
import repro.data.Scenarios
import repro.metrics.{RankMetrics, TaxoMetrics}

class TablesSpec extends SparkSpec {
  import Tables._

  private def lines(ls: String*): String = ls.mkString("", "\n", "\n")

  test("qualityRows leaves no cached RDD behind") {
    val sc = Scenarios.imdb(spark,
      Scenarios.ImdbParams(nMovies = 15, nDirectors = 6, nActors = 10, seed = 77))
    // Spark holds persistent RDDs weakly: after a full GC only those a
    // cache still references are counted.
    def persisted: Set[Int] = { System.gc(); spark.sparkContext.getPersistentRDDs.keySet.toSet }
    val before = persisted
    val rows = Tables.qualityRows(spark, sc, Nil, useGamma = true, useBuckets = false)
    assert(rows.map(_.method) == Seq("S-BE", "W-RW", "W-RW-EX"))
    assert((persisted -- before).isEmpty)
  }

  test("quality rows render as the paper's markdown, one section per variant") {
    val t = Table("Table I — IMDb", QHeader, Seq(
      "WT" -> Seq(
        QRow("S-BE", RankMetrics.Row(0.048, 0.02, 0.035, 0.048, 0.02, 0.065, 0.21), 0.0, 0.02),
        QRow("W-RW-EX", RankMetrics.Row(0.784, 0.7, 0.774, 0.784, 0.7, 0.89, 0.985), 1.3, 0.03)),
      "NT" -> Seq(
        QRow("DITTO*", RankMetrics.Row(1, 1, 1, 1, 1, 1, 1), 2.0, 0.1))))
    assert(t.markdown == lines(
      "## Table I — IMDb",
      "",
      "### WT",
      "| Method    | MRR   | MAP@1 | MAP@5 | MAP@20 | HP@1  | HP@5  | HP@20 |",
      "|-----------|-------|-------|-------|--------|-------|-------|-------|",
      "| S-BE      | 0.048 | 0.020 | 0.035 | 0.048 | 0.020 | 0.065 | 0.210 |",
      "| W-RW-EX   | 0.784 | 0.700 | 0.774 | 0.784 | 0.700 | 0.890 | 0.985 |",
      "",
      "### NT",
      "| Method    | MRR   | MAP@1 | MAP@5 | MAP@20 | HP@1  | HP@5  | HP@20 |",
      "|-----------|-------|-------|-------|--------|-------|-------|-------|",
      "| DITTO*    | 1.000 | 1.000 | 1.000 | 1.000 | 1.000 | 1.000 | 1.000 |"))
  }

  test("taxonomy rows render as Table III's markdown") {
    val t = Table("Table III — Audit (Exact | Node P/R/F)", TaxoHeader, Seq(
      "K=1" -> Seq(TaxoRow("W-RW", TaxoMetrics.PRF(0.5, 0.25, 1.0 / 3), TaxoMetrics.PRF(0.75, 0.5, 0.6)))))
    assert(t.markdown == lines(
      "## Table III — Audit (Exact | Node P/R/F)",
      "",
      "### K=1",
      "| Method    | ExP   | ExR   | ExF   | NoP   | NoR   | NoF   |",
      "|-----------|-------|-------|-------|-------|-------|-------|",
      "| W-RW      | 0.500 | 0.250 | 0.333 | 0.750 | 0.500 | 0.600 |"))
  }

  test("time rows render as Table VII's markdown") {
    val t = Table("Table VII — execution times (sec)", TimeHeader, Seq("" -> Seq(
      TimeRow("text2data", "W-RW", 1.27, 0.034),
      TimeRow("structured", "DEEP-M*", 1.75, 0.17))))
    assert(t.markdown == lines(
      "## Table VII — execution times (sec)",
      "",
      "| Task | Method | Train | Test |",
      "|------|--------|-------|------|",
      "| text2data | W-RW    | 1.27 | 0.03 |",
      "| structured | DEEP-M* | 1.75 | 0.17 |"))
  }

  test("size rows render as Table VIII's markdown") {
    val t = Table("Table VIII — compression (graph size vs MRR)", SizeHeader, Seq("" -> Seq(
      SizeRow("IMDB", "Original", 843, 3442, 0.609),
      SizeRow("Audit", "SSuM(0.1)", 282, 401, 0.3394))))
    assert(t.markdown == lines(
      "## Table VIII — compression (graph size vs MRR)",
      "",
      "| Dataset | Variant | #N | #E | MRR |",
      "|---|---|---|---|---|",
      "| IMDB | Original | 843 | 3442 | 0.609 |",
      "| Audit | SSuM(0.1) | 282 | 401 | 0.339 |"))
  }
}
