package repro.pipeline

import org.apache.spark.SparkJobs
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DoubleType, IntegerType, StringType}
import repro.SparkSpec
import repro.compress.{MSP, SSuM}
import repro.core.{GraphBuilder, Kind, Merging, TextCorpus}
import repro.data.Scenarios
import repro.embed.Embeddings
import repro.embed.EmbeddingsSpec.bits
import repro.expand.Expansion
import repro.metrics.RankMetrics
import repro.walk.RandomWalks

/** End-to-end pipeline checks on a tiny IMDb-like scenario. Quality
  * thresholds are deliberately loose — benches measure real numbers —
  * but the pipeline must rank gold tuples far above random.
  */
class TDMatchSpec extends SparkSpec {

  private lazy val sc = Scenarios.imdb(spark,
    Scenarios.ImdbParams(nMovies = 15, nDirectors = 6, nActors = 10, seed = 77))

  private lazy val cfg = TDMatch.Config(
    maxN = 2, numWalks = 8, walkLength = 8, window = 3, vectorSize = 32, topK = 15, seed = 3)

  private lazy val result = TDMatch.run(spark, sc.queries, sc.candidates, cfg)

  /** Ranked rows with the bits of `sim`, for exact comparison. */
  private def rows(ranked: DataFrame) = ranked.collect().map(r => (r.getString(0), r.getString(1),
    java.lang.Double.doubleToRawLongBits(r.getDouble(2)), r.getInt(3))).toSeq

  test("pipeline produces a ranking for every query") {
    val qs = result.ranked.select("queryId").distinct().count()
    assert(qs == sc.queries.units.select("docId").distinct().count())
  }
  test("ranking ids are raw document ids (prefixes stripped)") {
    val ids = result.ranked.select("candId").distinct().collect().map(_.getString(0))
    assert(ids.forall(id => !id.startsWith("m2::")))
  }
  test("graph contains both corpora's metadata nodes") {
    val kinds = result.originalGraph.nodes.groupBy("kind").count()
      .collect().map(r => r.getString(0) -> r.getLong(1)).toMap
    assert(kinds(Kind.Meta1) == 30) // 15 movies × 2 reviews
    assert(kinds(Kind.Meta2) == 15)
    assert(kinds.getOrElse(Kind.Attr, 0L) == 13L)
  }
  test("W-RW beats random ranking by a wide margin") {
    val mrr = RankMetrics.mrr(result.ranked, sc.truth)
    // random MRR over 15 candidates ≈ 0.22; demand clear signal
    assert(mrr > 0.35, s"mrr=$mrr")
  }
  test("metadata vectors exist for all query documents") {
    val qIds = sc.queries.units.select("docId").distinct().collect().map(_.getString(0))
    val missing = qIds.filterNot(id => result.vectors.contains(s"m1::$id"))
    assert(missing.isEmpty, s"missing vectors: ${missing.take(5).mkString(",")}")
  }
  test("expansion changes the graph and still ranks") {
    val cfgEx = cfg.copy(expansion = Some(sc.kb))
    val rEx = TDMatch.run(spark, sc.queries, sc.candidates, cfgEx)
    assert(rEx.graph.numNodes != result.originalGraph.numNodes ||
      rEx.graph.numEdges > result.originalGraph.numEdges)
    val mrr = RankMetrics.mrr(rEx.ranked, sc.truth)
    assert(mrr > 0.3, s"mrr=$mrr")
  }
  test("merge dictionary flows through the pipeline") {
    import spark.implicits._
    val merge = Merging.dictionaryMap(sc.mergeDict).toDF("variant", "canon")
    val cfgM = cfg.copy(mergeMap = Some(merge))
    val rM = TDMatch.run(spark, sc.queries, sc.candidates, cfgM)
    val mrr = RankMetrics.mrr(rM.ranked, sc.truth)
    assert(mrr > 0.3, s"mrr=$mrr")
  }
  test("MSP compression path runs end-to-end") {
    val cfgC = cfg.copy(compression = TDMatch.Msp(0.5))
    val rC = TDMatch.run(spark, sc.queries, sc.candidates, cfgC)
    assert(rC.graph.numNodes <= result.originalGraph.numNodes)
    assert(rC.ranked.select("queryId").distinct().count() == 30)
  }
  test("SSuM compression path runs end-to-end") {
    val cfgS = cfg.copy(compression = TDMatch.Ssum(0.9))
    val rS = TDMatch.run(spark, sc.queries, sc.candidates, cfgS)
    assert(rS.ranked.count() > 0)
  }
  test("run walks the graph that build, expand and compress give by hand: MSP and SSuM") {
    val base = GraphBuilder.build(spark, sc.queries, sc.candidates, GraphBuilder.Config(maxN = cfg.maxN))
    val expanded = Expansion.expand(spark, base, sc.kb)
    Seq(
      TDMatch.Msp(0.5) -> MSP.compress(spark, expanded, 0.5, cfg.seed),
      TDMatch.Ssum(0.1) -> SSuM.compress(spark, expanded, 0.1, cfg.seed)).foreach { case (c, byHand) =>
      val r = TDMatch.run(spark, sc.queries, sc.candidates, cfg.copy(expansion = Some(sc.kb), compression = c))
      assert(r.graph.nodeList == byHand.nodeList, c)
      assert(r.graph.edgeList == byHand.edgeList, c)
    }
  }
  test("a run leaves no persisted RDD once its ranking is released") {
    val before = spark.sparkContext.getPersistentRDDs.keySet.toSet
    val r = TDMatch.run(spark, sc.queries, sc.candidates,
      cfg.copy(expansion = Some(sc.kb), compression = TDMatch.Msp(0.5)))
    r.ranked.unpersist()
    val left = spark.sparkContext.getPersistentRDDs.keySet.toSet -- before
    assert(left.isEmpty, s"persisted RDDs left: ${left.size}")
  }
  test("a query without a vector ranks candidates by id at sim 0") {
    val q = sc.queries.units.select("docId").distinct().head().getString(0)
    val nCands = sc.candidates.units.select("docId").distinct().count().toInt
    val k = nCands + 5
    val rows = TDMatch.rank(spark, sc.queries, sc.candidates, result.vectors - s"m1::$q", cfg.vectorSize, k)
      .where(col("queryId") === q).collect().sortBy(_.getInt(3))
    assert(rows.length == math.min(k, nCands))
    assert(rows.map(_.getInt(3)).toSeq == (1 to rows.length))
    assert(rows.forall(_.getDouble(2) == 0.0))
    val ids = rows.map(_.getString(1)).toSeq
    assert(ids == ids.sorted)
  }
  test("a repeat rank call starts no Spark job and returns the same rows") {
    def ranked() = rows(TDMatch.rank(spark, sc.queries, sc.candidates, result.vectors, cfg.vectorSize, cfg.topK))
    val first = ranked()
    val (second, jobs) = SparkJobs.count(spark.sparkContext)(ranked())
    assert(jobs == 0)
    assert(second == first)
    assert(first.size == sc.queries.docIds.size * cfg.topK)
  }
  test("an empty query or candidate corpus ranks nothing") {
    import spark.implicits._
    val empty = TextCorpus("empty", Seq.empty[(String, String)].toDF("docId", "text"))
    Seq((empty, sc.candidates), (sc.queries, empty)).foreach { case (a, b) =>
      val r = TDMatch.rank(spark, a, b, result.vectors, cfg.vectorSize, cfg.topK)
      assert(r.schema.map(f => f.name -> f.dataType) == Seq(
        "queryId" -> StringType, "candId" -> StringType, "sim" -> DoubleType, "rank" -> IntegerType))
      assert(r.collect().isEmpty)
    }
  }
  test("pipeline is deterministic in seed at the ranking level") {
    val r2 = TDMatch.run(spark, sc.queries, sc.candidates, cfg)
    assert(bits(r2.vectors) == bits(result.vectors))
    assert(rows(r2.ranked) == rows(result.ranked))
  }
  test("training on the walk DataFrame gives run's vectors bit for bit") {
    val walks = RandomWalks.walks(spark, result.graph, cfg.numWalks, cfg.walkLength, cfg.seed)
    val v = Embeddings.train(spark, walks,
      Embeddings.Config(cfg.vectorSize, cfg.window, 1, cfg.w2vIterations, cfg.seed))
    assert(bits(v) == bits(result.vectors))
  }
  test("a repeat run on warm corpora without merge, expansion or compression starts no Spark job") {
    val first = rows(result.ranked)
    val (again, jobs) = SparkJobs.count(spark.sparkContext)(rows(
      TDMatch.run(spark, sc.queries, sc.candidates, cfg).ranked))
    assert(jobs == 0)
    assert(again == first)
  }
}
