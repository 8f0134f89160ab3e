package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.baselines._
import repro.core.{Gamma, Merging}
import repro.data.{Pretrained, Scenario, Scenarios}
import repro.metrics.{RankMetrics, TaxoMetrics}
import repro.pipeline.TDMatch

/** Reproduction harness: one function per evaluation table (I–VIII).
  *
  * Each function runs the methods of that table on the synthetic scenario
  * and returns its typed rows; [[Table.markdown]] renders them in the
  * paper's layout so EXPERIMENTS.md can diff the published numbers against
  * measured ones. Every TDmatch run goes through [[TDMatch.run]]. Scales
  * are reduced vs the paper (see DESIGN.md substitution 7); shapes, not
  * absolutes, are the reproduction target.
  */
object Tables {

  /** Bench-scale defaults (paper: 100 walks × length 30; reduced here to
    * keep the full 8-table matrix within CI time). Three training epochs:
    * fewer leave the skip-gram vectors of these small walk corpora
    * undertrained (DESIGN.md, substitution 6).
    */
  final case class Bench(
      numWalks: Int = 10,
      walkLength: Int = 10,
      maxN: Int = 2,
      dim: Int = 40,
      topK: Int = 20,
      w2vIterations: Int = 3,
      seed: Long = 42)

  val Default: Bench = Bench()

  // ------------------------------------------------------------ utilities

  /** Merge map per paper §II-C: lexical dictionary always; FD bucketing
    * for numeric-heavy corpora; embedding-γ merge with calibrated γ. Built
    * on the driver from the corpora's [[repro.core.Corpus.terms]], which
    * the graph build then reuses; the result is a local relation.
    */
  def mergeFor(
      spark: SparkSession,
      sc: Scenario,
      useGamma: Boolean,
      useBuckets: Boolean,
      bench: Bench = Default): Option[DataFrame] = {
    import spark.implicits._
    val maps = scala.collection.mutable.ListBuffer.empty[Seq[(String, String)]]
    if (sc.mergeDict.nonEmpty) maps += Merging.dictionaryMap(sc.mergeDict)
    lazy val terms = (sc.queries.terms(bench.maxN).rows ++ sc.candidates.terms(bench.maxN).rows)
      .map(_._3).distinct
    if (useBuckets) maps += Merging.numericBucketMap(terms)
    if (useGamma) {
      val pre = Pretrained.vectors(spark, sc.world, bench.dim)
      val gamma = Gamma.calibrate(sc.world.synonymPairsStemmed, pre)
      maps += Merging.gammaMergeMap(terms, pre, gamma)
    }
    if (maps.isEmpty) None else Some(Merging.compose(maps.toSeq: _*).toDF("variant", "canon"))
  }

  def cfgFor(sc: Scenario, merge: Option[DataFrame], expand: Boolean, bench: Bench): TDMatch.Config =
    TDMatch.Config(
      maxN = bench.maxN,
      numWalks = bench.numWalks, walkLength = bench.walkLength,
      window = sc.window, vectorSize = bench.dim, w2vIterations = bench.w2vIterations,
      mergeMap = merge,
      expansion = if (expand) Some(sc.kb) else None,
      topK = bench.topK, seed = bench.seed)

  /** Restrict truth to the queries that appear in a ranking (used to score
    * supervised methods on their held-out 40% split).
    */
  def truthFor(ranked: DataFrame, truth: DataFrame): DataFrame =
    truth.join(ranked.select("queryId").distinct(), Seq("queryId"), "left_semi")

  // ------------------------------------------------------------------ rows

  /** One table row, formatted as a markdown line. */
  sealed trait Row { def format: String }

  /** Tables I, II, IV, V, VI: one method's ranking quality. */
  final case class QRow(method: String, row: RankMetrics.Row, trainSec: Double, testSec: Double)
      extends Row {
    def format: String =
      f"| $method%-9s | ${row.mrr}%.3f | ${row.map1}%.3f | ${row.map5}%.3f | ${row.map20}%.3f " +
        f"| ${row.hp1}%.3f | ${row.hp5}%.3f | ${row.hp20}%.3f |"
  }

  val QHeader: String =
    "| Method    | MRR   | MAP@1 | MAP@5 | MAP@20 | HP@1  | HP@5  | HP@20 |\n" +
    "|-----------|-------|-------|-------|--------|-------|-------|-------|"

  /** Table III: one method's Exact and Node scores at one K. */
  final case class TaxoRow(method: String, exact: TaxoMetrics.PRF, node: TaxoMetrics.PRF) extends Row {
    def format: String =
      f"| $method%-9s | ${exact.p}%.3f | ${exact.r}%.3f | ${exact.f}%.3f " +
        f"| ${node.p}%.3f | ${node.r}%.3f | ${node.f}%.3f |"
  }

  val TaxoHeader: String =
    "| Method    | ExP   | ExR   | ExF   | NoP   | NoR   | NoF   |\n" +
    "|-----------|-------|-------|-------|-------|-------|-------|"

  /** Table VII: one method's train and test wall-clock seconds on one task. */
  final case class TimeRow(task: String, method: String, trainSec: Double, testSec: Double) extends Row {
    def format: String = f"| $task | $method%-7s | $trainSec%.2f | $testSec%.2f |"
  }

  val TimeHeader: String = "| Task | Method | Train | Test |\n|------|--------|-------|------|"

  /** Table VIII: one graph variant's size and the MRR of matching on it. */
  final case class SizeRow(dataset: String, variant: String, nodes: Int, edges: Int, mrr: Double)
      extends Row {
    def format: String = f"| $dataset | $variant | $nodes | $edges | $mrr%.3f |"
  }

  val SizeHeader: String = "| Dataset | Variant | #N | #E | MRR |\n|---|---|---|---|---|"

  /** A table in the paper's layout: sections of rows under one header. A
    * section with an empty name has no heading.
    */
  final case class Table[R <: Row](title: String, header: String, sections: Seq[(String, Seq[R])]) {
    def rows: Seq[R] = sections.flatMap(_._2)

    /** The markdown that the bench suites print and EXPERIMENTS.md records. */
    def markdown: String = {
      val sb = new StringBuilder(s"## $title\n")
      sections.foreach { case (name, rows) =>
        sb.append(if (name.isEmpty) "\n" else s"\n### $name\n").append(header).append('\n')
        rows.foreach(r => sb.append(r.format).append('\n'))
      }
      sb.result()
    }
  }

  /** Quality rows for the standard unsupervised + supervised method mix. */
  def qualityRows(
      spark: SparkSession,
      sc: Scenario,
      supervised: Seq[Supervised.Method],
      useGamma: Boolean,
      useBuckets: Boolean,
      bench: Bench = Default): Seq[QRow] = {
    val truth = sc.truth.persist()
    val truthPairs = truth.collect().map(r => (r.getString(0), r.getString(1))).toSeq

    val sbe = EmbedBaselines.sbe(spark, sc.world, sc.queries, sc.candidates, bench.topK, bench.dim)
    val merge = mergeFor(spark, sc, useGamma, useBuckets, bench)
    val tdmatch = Seq("W-RW" -> false, "W-RW-EX" -> true).map { case (name, expand) =>
      val r = TDMatch.run(spark, sc.queries, sc.candidates, cfgFor(sc, merge, expand, bench))
      QRow(name, RankMetrics.row(r.ranked, truth), r.trainSec, r.testSec)
    }
    val rows = (QRow("S-BE", RankMetrics.row(sbe.ranked, truth), 0.0, sbe.testSec) +: tdmatch) ++
      supervised.map { m =>
        val out = Supervised.run(spark, sc.world, m, sc.queries, sc.candidates,
          truthPairs, bench.topK, bench.dim, bench.seed)
        QRow(m.name, RankMetrics.row(out.ranked, truthFor(out.ranked, truth)), out.trainSec, out.testSec)
      }
    truth.unpersist()
    rows
  }

  // ---------------------------------------------------------------- tables

  /** Table I — IMDb text-to-data (WT and NT). */
  def tableI(spark: SparkSession, bench: Bench = Default): Table[QRow] = {
    val sections = Seq(true -> "WT", false -> "NT").map { case (wt, name) =>
      val sc = Scenarios.imdb(spark, Scenarios.ImdbParams(nMovies = 100, withTitle = wt))
      name -> qualityRows(spark, sc,
        Seq(Supervised.Rank, Supervised.Ditto, Supervised.Tapas),
        useGamma = true, useBuckets = false, bench)
    }
    Table("Table I — IMDb", QHeader, sections)
  }

  /** Table II — CoronaCheck text-to-data (Gen and Usr).
    *
    * Corona's graph is the sparsest and most hub-heavy (country/period
    * nodes shared by dozens of tuples); as in the paper (§V-F1, Fig. 7)
    * it needs a larger walk budget than the other scenarios.
    */
  def tableII(spark: SparkSession,
              bench: Bench = Default.copy(numWalks = 30, walkLength = 15)): Table[QRow] = {
    val sections = Seq(false -> "Gen", true -> "Usr").map { case (usr, name) =>
      val sc = Scenarios.corona(spark, Scenarios.CoronaParams(nGen = 250, user = usr))
      name -> qualityRows(spark, sc,
        Seq(Supervised.Rank, Supervised.DeepM, Supervised.Ditto, Supervised.Tapas),
        useGamma = true, useBuckets = true, bench)
    }
    Table("Table II — CoronaCheck", QHeader, sections)
  }

  /** Table III — Audit structured-text: Exact and Node P/R/F at K. */
  def tableIII(spark: SparkSession, bench: Bench = Default): Table[TaxoRow] = {
    val sc = Scenarios.audit(spark, Scenarios.AuditParams(nDocs = 250))
    val info = sc.taxonomy.get
    val paths = TaxoMetrics.paths(info.parentOf, info.textOf)
    val truth = sc.truth.persist()
    val truthPairs = truth.collect().map(r => (r.getString(0), r.getString(1))).toSeq
    val goldPaths: Map[String, Seq[Seq[String]]] =
      truthPairs.groupBy(_._1).map { case (d, ps) => d -> ps.map(p => paths(p._2)) }

    def predPaths(ranked: DataFrame, k: Int): Map[String, Seq[Seq[String]]] =
      ranked.where(col("rank") <= k)
        .collect()
        .map(r => (r.getString(0), r.getString(1), r.getInt(3)))
        .groupBy(_._1)
        .map { case (d, rs) => d -> rs.sortBy(_._3).map(t => paths(t._2)).toSeq }

    val d2v = EmbedBaselines.trained(spark, sc.queries, sc.candidates, 10, docIdToken = true, bench.dim)
    val sbe = EmbedBaselines.sbe(spark, sc.world, sc.queries, sc.candidates, 10, bench.dim)
    val merge = mergeFor(spark, sc, useGamma = false, useBuckets = false, bench)
    val tdmatch = Seq("W-RW" -> false, "W-RW-EX" -> true).map { case (name, expand) =>
      name -> TDMatch.run(spark, sc.queries, sc.candidates, cfgFor(sc, merge, expand, bench)).ranked
    }
    val rank = Supervised.run(spark, sc.world, Supervised.Rank, sc.queries, sc.candidates,
      truthPairs, 10, bench.dim, bench.seed)
    val lbe = MultiLabel.run(spark, sc.queries, sc.candidates, truthPairs, 10)

    val methods: Seq[(String, DataFrame)] = Seq("D2VEC" -> d2v.ranked, "S-BE" -> sbe.ranked) ++
      tdmatch ++ Seq("RANK*" -> rank.ranked, "L-BE*" -> lbe.ranked)

    val sections = Seq(1, 3, 5, 10).map { k =>
      s"K=$k" -> methods.map { case (name, ranked) =>
        val preds = predPaths(ranked, k)
        // Supervised methods are scored on their held-out queries only.
        val gold = goldPaths.filter { case (d, _) => preds.contains(d) || !Set("RANK*", "L-BE*")(name) }
        TaxoRow(name, TaxoMetrics.exact(preds, gold), TaxoMetrics.node(preds, gold))
      }
    }
    truth.unpersist()
    Table("Table III — Audit (Exact | Node P/R/F)", TaxoHeader, sections)
  }

  /** Tables IV & V — Politifact / Snopes text-to-text. */
  def tableTextToText(spark: SparkSession, which: String, bench: Bench = Default): Table[QRow] = {
    val sc =
      if (which == "politifact")
        Scenarios.claims(spark, Scenarios.ClaimsParams(nFacts = 1500, nClaims = 100,
          synProb = 0.55, dropProb = 0.3, seed = 778, name = "politifact"))
      else
        Scenarios.claims(spark, Scenarios.ClaimsParams(nFacts = 1000, nClaims = 120,
          synProb = 0.3, dropProb = 0.15, seed = 777, name = "snopes"))
    val rows = qualityRows(spark, sc, Seq(Supervised.Rank),
      useGamma = true, useBuckets = false, bench)
    Table(s"Table ${if (which == "politifact") "IV" else "V"} — ${sc.name}", QHeader,
      Seq(sc.name -> rows))
  }

  /** Table VI — STS at thresholds k=2 and k=3. */
  def tableVI(spark: SparkSession, bench: Bench = Default): Table[QRow] = {
    val sections = Seq(2, 3).map { k =>
      val sc = Scenarios.sts(spark, Scenarios.StsParams(nPairs = 300, threshold = k))
      s"k=$k" -> qualityRows(spark, sc, Seq(Supervised.Rank),
        useGamma = true, useBuckets = false, bench)
    }
    Table("Table VI — STS", QHeader, sections)
  }

  /** Table VII — train/test execution times per task family (seconds). */
  def tableVII(spark: SparkSession, bench: Bench = Default): Table[TimeRow] = {
    // text-to-data (CoronaCheck Gen), structured (Audit), text-to-text (Snopes)
    val tasks: Seq[(String, Scenario, Seq[Supervised.Method])] = Seq(
      ("text2data", Scenarios.corona(spark, Scenarios.CoronaParams(nGen = 200)),
        Seq(Supervised.Rank, Supervised.Tapas, Supervised.DeepM, Supervised.Ditto)),
      ("structured", Scenarios.audit(spark, Scenarios.AuditParams(nDocs = 200)), Seq(Supervised.Rank)),
      ("text2text", Scenarios.claims(spark, Scenarios.ClaimsParams(nFacts = 800, nClaims = 100, seed = 777, name = "snopes")), Seq(Supervised.Rank)))

    val rows = tasks.flatMap { case (task, sc, sup) =>
      val truthPairs = sc.truth.collect().map(r => (r.getString(0), r.getString(1))).toSeq
      val w2v = EmbedBaselines.trained(spark, sc.queries, sc.candidates, bench.topK,
        docIdToken = false, bench.dim)
      val d2v = EmbedBaselines.trained(spark, sc.queries, sc.candidates, bench.topK,
        docIdToken = true, bench.dim)
      val sbe = EmbedBaselines.sbe(spark, sc.world, sc.queries, sc.candidates, bench.topK, bench.dim)
      val rw = TDMatch.run(spark, sc.queries, sc.candidates,
        cfgFor(sc, mergeFor(spark, sc, useGamma = false, useBuckets = false, bench), expand = false, bench))
      val supervisedRows = sup.map { m =>
        val out = Supervised.run(spark, sc.world, m, sc.queries, sc.candidates,
          truthPairs, bench.topK, bench.dim, bench.seed)
        TimeRow(task, m.name, out.trainSec, out.testSec)
      }
      val lbe =
        if (task == "structured") {
          val out = MultiLabel.run(spark, sc.queries, sc.candidates, truthPairs, bench.topK)
          Seq(TimeRow(task, "L-BE*", out.trainSec, out.testSec))
        } else Nil
      Seq(TimeRow(task, "W2VEC", w2v.trainSec, w2v.testSec),
        TimeRow(task, "D2VEC", d2v.trainSec, d2v.testSec),
        TimeRow(task, "S-BE", 0.0, sbe.testSec),
        TimeRow(task, "W-RW", rw.trainSec, rw.testSec)) ++ supervisedRows ++ lbe
    }
    Table("Table VII — execution times (sec)", TimeHeader, Seq("" -> rows))
  }

  /** Table VIII — compression: #N, #E and MRR per graph variant. */
  def tableVIII(spark: SparkSession, bench: Bench = Bench(numWalks = 8, walkLength = 8)): Table[SizeRow] = {
    val scenarios: Seq[(String, Scenario, Boolean)] = Seq(
      ("IMDB", Scenarios.imdb(spark, Scenarios.ImdbParams(nMovies = 80)), true),
      ("Corona", Scenarios.corona(spark, Scenarios.CoronaParams(nGen = 200)), true),
      ("Snopes", Scenarios.claims(spark,
        Scenarios.ClaimsParams(nFacts = 800, nClaims = 100, synProb = 0.3, dropProb = 0.15,
          seed = 777, name = "snopes")), false),
      ("Politi", Scenarios.claims(spark,
        Scenarios.ClaimsParams(nFacts = 1200, nClaims = 80, synProb = 0.55, dropProb = 0.3,
          seed = 778, name = "politifact")), false),
      ("Audit", Scenarios.audit(spark, Scenarios.AuditParams(nDocs = 200)), false))
    // variant → (expand?, compression of the expanded graph)
    val variants: Seq[(String, Boolean, TDMatch.Compression)] = Seq(
      ("Original", false, TDMatch.NoCompression),
      ("Expanded", true, TDMatch.NoCompression),
      ("MSP(0.5)", true, TDMatch.Msp(0.5)),
      ("MSP(0.25)", true, TDMatch.Msp(0.25)),
      ("SSuM(0.1)", true, TDMatch.Ssum(0.1)))

    val rows = scenarios.flatMap { case (name, sc, buckets) =>
      val merge = mergeFor(spark, sc, useGamma = false, useBuckets = buckets, bench)
      variants.map { case (variant, expand, compression) =>
        val r = TDMatch.run(spark, sc.queries, sc.candidates,
          cfgFor(sc, merge, expand, bench).copy(compression = compression))
        SizeRow(name, variant, r.graph.numNodes, r.graph.numEdges, RankMetrics.mrr(r.ranked, sc.truth))
      }
    }
    Table("Table VIII — compression (graph size vs MRR)", SizeHeader, Seq("" -> rows))
  }
}
