package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import repro.baselines._
import repro.core.{Gamma, Merging}
import repro.data.{Pretrained, Scenario, Scenarios, World}
import repro.expand.Expansion
import repro.compress.{MSP, SSuM}
import repro.metrics.{RankMetrics, TaxoMetrics}
import repro.pipeline.TDMatch

/** Reproduction harness: one function per evaluation table (I–VIII).
  *
  * Each function runs the methods of that table on the synthetic scenario
  * and renders rows in the paper's layout so EXPERIMENTS.md can diff the
  * published numbers against measured ones. Scales are reduced vs the
  * paper (see DESIGN.md substitution 7); shapes, not absolutes, are the
  * reproduction target.
  */
object Tables {

  /** Bench-scale defaults (paper: 100 walks × length 30; reduced here to
    * keep the full 8-table matrix within CI time).
    */
  final case class Bench(
      numWalks: Int = 10,
      walkLength: Int = 10,
      maxN: Int = 2,
      dim: Int = 40,
      topK: Int = 20,
      w2vIterations: Int = 1,
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

  /** Runs W-RW (optionally with expansion) and returns the TDMatch result.
    * `precomputedMerge` avoids re-deriving the merge map (the γ merge
    * scores every pair of in-vocabulary terms) when both W-RW and W-RW-EX
    * run.
    */
  def wrw(spark: SparkSession, sc: Scenario, expand: Boolean,
          useGamma: Boolean = true, useBuckets: Boolean = false,
          bench: Bench = Default,
          precomputedMerge: Option[Option[DataFrame]] = None): TDMatch.Result = {
    val merge = precomputedMerge.getOrElse(mergeFor(spark, sc, useGamma, useBuckets, bench))
    TDMatch.run(spark, sc.queries, sc.candidates, cfgFor(sc, merge, expand, bench))
  }

  /** Restrict truth to the queries that appear in a ranking (used to score
    * supervised methods on their held-out 40% split).
    */
  def truthFor(ranked: DataFrame, truth: DataFrame): DataFrame =
    truth.join(ranked.select("queryId").distinct(), Seq("queryId"), "left_semi")

  final case class QRow(method: String, row: RankMetrics.Row, trainSec: Double, testSec: Double) {
    def format: String = {
      val r = row
      f"| ${method}%-9s | ${r.mrr}%.3f | ${r.map1}%.3f | ${r.map5}%.3f | ${r.map20}%.3f " +
        f"| ${r.hp1}%.3f | ${r.hp5}%.3f | ${r.hp20}%.3f |"
    }
  }

  val QHeader: String =
    "| Method    | MRR   | MAP@1 | MAP@5 | MAP@20 | HP@1  | HP@5  | HP@20 |\n" +
    "|-----------|-------|-------|-------|--------|-------|-------|-------|"

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
    val rw = wrw(spark, sc, expand = false, useGamma, useBuckets, bench, Some(merge))
    val rwEx = wrw(spark, sc, expand = true, useGamma, useBuckets, bench, Some(merge))

    val rows = scala.collection.mutable.ListBuffer(
      QRow("S-BE", RankMetrics.row(sbe.ranked, truth), 0.0, sbe.testSec),
      QRow("W-RW", RankMetrics.row(rw.ranked, truth), rw.trainSec, rw.testSec),
      QRow("W-RW-EX", RankMetrics.row(rwEx.ranked, truth), rwEx.trainSec, rwEx.testSec))

    supervised.foreach { m =>
      val out = Supervised.run(spark, sc.world, m, sc.queries, sc.candidates,
        truthPairs, bench.topK, bench.dim, bench.seed)
      rows += QRow(m.name, RankMetrics.row(out.ranked, truthFor(out.ranked, truth)),
        out.trainSec, out.testSec)
    }
    truth.unpersist()
    rows.toSeq
  }

  private def renderQuality(title: String, sections: Seq[(String, Seq[QRow])]): String = {
    val sb = new StringBuilder(s"## $title\n")
    sections.foreach { case (name, rows) =>
      sb.append(s"\n### $name\n$QHeader\n")
      rows.foreach(r => sb.append(r.format).append('\n'))
    }
    sb.result()
  }

  // ---------------------------------------------------------------- tables

  /** Table I — IMDb text-to-data (WT and NT). */
  def tableI(spark: SparkSession, bench: Bench = Default): String = {
    val sections = Seq(true -> "WT", false -> "NT").map { case (wt, name) =>
      val sc = Scenarios.imdb(spark, Scenarios.ImdbParams(nMovies = 100, withTitle = wt))
      name -> qualityRows(spark, sc,
        Seq(Supervised.Rank, Supervised.Ditto, Supervised.Tapas),
        useGamma = true, useBuckets = false, bench)
    }
    renderQuality("Table I — IMDb", sections)
  }

  /** Table II — CoronaCheck text-to-data (Gen and Usr).
    *
    * Corona's graph is the sparsest and most hub-heavy (country/period
    * nodes shared by dozens of tuples); as in the paper (§V-F1, Fig. 7)
    * it needs a larger walk budget than the other scenarios.
    */
  def tableII(spark: SparkSession,
              bench: Bench = Default.copy(numWalks = 30, walkLength = 15)): String = {
    val sections = Seq(false -> "Gen", true -> "Usr").map { case (usr, name) =>
      val sc = Scenarios.corona(spark, Scenarios.CoronaParams(nGen = 250, user = usr))
      name -> qualityRows(spark, sc,
        Seq(Supervised.Rank, Supervised.DeepM, Supervised.Ditto, Supervised.Tapas),
        useGamma = true, useBuckets = true, bench)
    }
    renderQuality("Table II — CoronaCheck", sections)
  }

  /** Table III — Audit structured-text: Exact and Node P/R/F at K. */
  def tableIII(spark: SparkSession, bench: Bench = Default): String = {
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

    // method → (ranked, restrict-to-held-out?)
    val d2v = EmbedBaselines.trained(spark, sc.queries, sc.candidates, 10, docIdToken = true, bench.dim)
    val sbe = EmbedBaselines.sbe(spark, sc.world, sc.queries, sc.candidates, 10, bench.dim)
    val rw = wrw(spark, sc, expand = false, useGamma = false, useBuckets = false, bench)
    val rwEx = wrw(spark, sc, expand = true, useGamma = false, useBuckets = false, bench)
    val rank = Supervised.run(spark, sc.world, Supervised.Rank, sc.queries, sc.candidates,
      truthPairs, 10, bench.dim, bench.seed)
    val lbe = MultiLabel.run(spark, sc.queries, sc.candidates, truthPairs, 10)

    val methods: Seq[(String, DataFrame)] = Seq(
      "D2VEC" -> d2v.ranked, "S-BE" -> sbe.ranked, "W-RW" -> rw.ranked,
      "W-RW-EX" -> rwEx.ranked, "RANK*" -> rank.ranked, "L-BE*" -> lbe.ranked)

    val sb = new StringBuilder("## Table III — Audit (Exact | Node P/R/F)\n")
    Seq(1, 3, 5, 10).foreach { k =>
      sb.append(s"\n### K=$k\n")
      sb.append("| Method    | ExP   | ExR   | ExF   | NoP   | NoR   | NoF   |\n")
      sb.append("|-----------|-------|-------|-------|-------|-------|-------|\n")
      methods.foreach { case (name, ranked) =>
        val preds = predPaths(ranked, k)
        val gold = goldPaths.filter { case (d, _) => preds.contains(d) || !Set("RANK*", "L-BE*")(name) }
        val e = TaxoMetrics.exact(preds, gold)
        val n = TaxoMetrics.node(preds, gold)
        sb.append(f"| $name%-9s | ${e.p}%.3f | ${e.r}%.3f | ${e.f}%.3f " +
          f"| ${n.p}%.3f | ${n.r}%.3f | ${n.f}%.3f |\n")
      }
    }
    truth.unpersist()
    sb.result()
  }

  /** Tables IV & V — Politifact / Snopes text-to-text. */
  def tableTextToText(spark: SparkSession, which: String, bench: Bench = Default): String = {
    val sc =
      if (which == "politifact")
        Scenarios.claims(spark, Scenarios.ClaimsParams(nFacts = 1500, nClaims = 100,
          synProb = 0.55, dropProb = 0.3, seed = 778, name = "politifact"))
      else
        Scenarios.claims(spark, Scenarios.ClaimsParams(nFacts = 1000, nClaims = 120,
          synProb = 0.3, dropProb = 0.15, seed = 777, name = "snopes"))
    val rows = qualityRows(spark, sc, Seq(Supervised.Rank),
      useGamma = true, useBuckets = false, bench)
    renderQuality(s"Table ${if (which == "politifact") "IV" else "V"} — ${sc.name}",
      Seq(sc.name -> rows))
  }

  /** Table VI — STS at thresholds k=2 and k=3. */
  def tableVI(spark: SparkSession, bench: Bench = Default): String = {
    val sections = Seq(2, 3).map { k =>
      val sc = Scenarios.sts(spark, Scenarios.StsParams(nPairs = 300, threshold = k))
      s"k=$k" -> qualityRows(spark, sc, Seq(Supervised.Rank),
        useGamma = true, useBuckets = false, bench)
    }
    renderQuality("Table VI — STS", sections)
  }

  /** Table VII — train/test execution times per task family (seconds). */
  def tableVII(spark: SparkSession, bench: Bench = Default): String = {
    val sb = new StringBuilder("## Table VII — execution times (sec)\n\n")
    sb.append("| Task | Method | Train | Test |\n|------|--------|-------|------|\n")

    def add(task: String, name: String, tr: Double, te: Double): Unit =
      sb.append(f"| $task | $name%-7s | $tr%.2f | $te%.2f |\n")

    // text-to-data (CoronaCheck Gen), structured (Audit), text-to-text (Snopes)
    val tasks: Seq[(String, Scenario, Seq[Supervised.Method])] = Seq(
      ("text2data", Scenarios.corona(spark, Scenarios.CoronaParams(nGen = 200)),
        Seq(Supervised.Rank, Supervised.Tapas, Supervised.DeepM, Supervised.Ditto)),
      ("structured", Scenarios.audit(spark, Scenarios.AuditParams(nDocs = 200)), Seq(Supervised.Rank)),
      ("text2text", Scenarios.claims(spark, Scenarios.ClaimsParams(nFacts = 800, nClaims = 100, seed = 777, name = "snopes")), Seq(Supervised.Rank)))

    tasks.foreach { case (task, sc, sup) =>
      val truthPairs = sc.truth.collect().map(r => (r.getString(0), r.getString(1))).toSeq
      val w2v = EmbedBaselines.trained(spark, sc.queries, sc.candidates, bench.topK,
        docIdToken = false, bench.dim)
      add(task, "W2VEC", w2v.trainSec, w2v.testSec)
      val d2v = EmbedBaselines.trained(spark, sc.queries, sc.candidates, bench.topK,
        docIdToken = true, bench.dim)
      add(task, "D2VEC", d2v.trainSec, d2v.testSec)
      val sbe = EmbedBaselines.sbe(spark, sc.world, sc.queries, sc.candidates, bench.topK, bench.dim)
      add(task, "S-BE", 0.0, sbe.testSec)
      val rw = wrw(spark, sc, expand = false, useGamma = false, useBuckets = false, bench)
      add(task, "W-RW", rw.trainSec, rw.testSec)
      sup.foreach { m =>
        val out = Supervised.run(spark, sc.world, m, sc.queries, sc.candidates,
          truthPairs, bench.topK, bench.dim, bench.seed)
        add(task, m.name, out.trainSec, out.testSec)
      }
      if (task == "structured") {
        val lbe = MultiLabel.run(spark, sc.queries, sc.candidates, truthPairs, bench.topK)
        add(task, "L-BE*", lbe.trainSec, lbe.testSec)
      }
    }
    sb.result()
  }

  /** Table VIII — compression: #N, #E and MRR per graph variant. */
  def tableVIII(spark: SparkSession, bench: Bench = Bench(numWalks = 8, walkLength = 8)): String = {
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

    val sb = new StringBuilder("## Table VIII — compression (graph size vs MRR)\n\n")
    sb.append("| Dataset | Variant | #N | #E | MRR |\n|---|---|---|---|---|\n")
    scenarios.foreach { case (name, sc, buckets) =>
      val merge = mergeFor(spark, sc, useGamma = false, useBuckets = buckets, bench)
      val cfg = cfgFor(sc, merge, expand = false, bench)
      val base = repro.core.GraphBuilder
        .build(spark, sc.queries, sc.candidates,
          repro.core.GraphBuilder.Config(maxN = cfg.maxN, mergeMap = merge))
      val expanded = Expansion.expand(spark, base, sc.kb)

      val variants: Seq[(String, repro.core.Graph)] = Seq(
        "Original" -> base,
        "Expanded" -> expanded,
        "MSP(0.5)" -> MSP.compress(spark, expanded, 0.5, cfg.seed),
        "MSP(0.25)" -> MSP.compress(spark, expanded, 0.25, cfg.seed),
        "SSuM(0.1)" -> SSuM.compress(spark, expanded, 0.1, cfg.seed))

      variants.foreach { case (vName, g) =>
        val (_, ranked, _, _) = TDMatch.embedAndRank(spark, g, sc.queries, sc.candidates, cfg)
        val mrr = RankMetrics.mrr(ranked, sc.truth)
        sb.append(f"| $name | $vName | ${g.numNodes} | ${g.numEdges} | $mrr%.3f |\n")
        ranked.unpersist()
      }
    }
    sb.result()
  }
}
