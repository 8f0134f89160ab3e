package perfbench

import java.lang.management.ManagementFactory
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.bench.Tables
import repro.compress.MSP
import repro.core.{Graph, GraphBuilder}
import repro.data.{Pretrained, Scenario, Scenarios}
import repro.embed.Embeddings
import repro.expand.Expansion
import repro.jobs.JobSession
import repro.metrics.RankMetrics
import repro.pipeline.TDMatch
import repro.walk.RandomWalks
import scala.collection.mutable.ListBuffer
import scala.io.Source
import scala.util.control.NonFatal

/** TDmatch benchmark entry point.
  *
  * {{{
  * perfbench.Main --workload <name> --seed <n> --seconds <s> --trace <0|1>
  * }}}
  *
  * Prints one JSON line `{"correct", "attempted", "failed", "metrics"}` as
  * the last line of standard output: the end-to-end metrics with
  * `--trace 0`, the per-layer metrics with `--trace 1`. See README.md.
  */
object Main {

  val Layers: Seq[String] = Seq(
    "data.scenario", "data.pretrained", "core.merge", "core.graph", "expand", "compress",
    "walk", "embed", "matching", "metrics", "pipeline")

  /** Layers a workload may leave out; `<layer>.calls` reads 0 there. */
  val Called: Seq[String] = Layers.filterNot(_ == "pipeline")

  val PerLayer: Seq[(String, String)] =
    Layers.flatMap(l => Seq(s"$l.wall_s" -> "s", s"$l.jobs" -> "count", s"$l.tasks" -> "count", s"$l.gc_s" -> "s")) ++
      Called.map(l => s"$l.calls" -> "count") ++
      Seq(
        "core.merge.map_rows" -> "count", "core.merge.gamma_terms" -> "count",
        "core.graph.nodes" -> "count", "core.graph.edges" -> "count",
        "expand.kb_nodes" -> "count", "expand.pruned_nodes" -> "count",
        "expand.nodes" -> "count", "expand.edges" -> "count",
        "compress.nodes" -> "count", "compress.edges" -> "count", "compress.edge_keep_ratio" -> "ratio",
        "walk.sentences" -> "count", "walk.tokens" -> "count", "walk.fill_ratio" -> "ratio",
        "embed.vocab" -> "count",
        "matching.pairs_scored" -> "count", "matching.zero_vector_queries" -> "count",
        "pipeline.shuffle_mb" -> "MB", "pipeline.cached_rdds_left" -> "count",
        "pipeline.tracing_overhead_s" -> "s")

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def fail(msg: String): Nothing = {
      Console.err.println(s"perfbench: $msg\nusage: perfbench.Main --workload <${Workloads.all.map(_.name).mkString("|")}> " +
        "--seed <n> --seconds <s> --trace <0|1>")
      sys.exit(2)
    }
    val workload = opts.get("workload").flatMap(Workloads.byName).getOrElse(fail("unknown or missing --workload"))
    val seed = opts.get("seed").flatMap(_.toLongOption).getOrElse(fail("--seed must be an integer"))
    val seconds = opts.get("seconds").flatMap(_.toDoubleOption).filter(_ > 0).getOrElse(fail("--seconds must be positive"))
    val trace = opts.get("trace") match {
      case Some("0") => false
      case Some("1") => true
      case _         => fail("--trace must be 0 or 1")
    }
    val run = new Run(workload, seed, seconds)
    val line = try if (trace) run.traced() else run.measured() finally run.stop()
    println(line)
  }
}

/** One benchmark run of one workload in a fresh JVM. */
final class Run(w: Workload, seed: Long, seconds: Double) {
  import Checks.{LocalGraph, Ranked}
  import Run.{Inputs, Matched}

  /** After the match, `TDMatch.rank` is called for `--seconds` and at
    * least this many times; `queries_per_cpu_s` uses the median call,
    * which leaves out the slower first calls.
    */
  private val MinRankCalls = 5
  /** No rank call starts after this much JVM uptime. */
  private val DeadlineS = 150.0

  // JVM uptime: the MXBean's milliseconds at construction, nanoTime after.
  private val startUptimeMs = ManagementFactory.getRuntimeMXBean.getUptime
  private val startNanos = System.nanoTime()
  private def uptimeS: Double = startUptimeMs / 1e3 + since(startNanos)

  private val spark: SparkSession = JobSession.spark("perfbench")
  private val sessionUpS = uptimeS
  private val bench = w.bench
  private var attempted = 0
  private var failed = 0
  /** Failed operations on the fixed repeated-pair input; `correct` speaks
    * of the other operations.
    */
  private var knownFailed = 0

  private def log(msg: String): Unit = Console.err.println(f"perfbench: [$uptimeS%7.2f s] $msg")
  /** CPU seconds of the whole JVM, all threads, since it started. A
    * guest kernel that accounts steal time does not count time the
    * hypervisor stole from its CPUs here, unlike in wall-clock time.
    */
  private def cpuS: Double = ManagementFactory.getOperatingSystemMXBean
    .asInstanceOf[com.sun.management.OperatingSystemMXBean].getProcessCpuTime / 1e9
  private def since(t0: Long): Double = (System.nanoTime() - t0) / 1e9
  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def stop(): Unit = spark.stop()

  /** The program scores against the scenario's truth as it is, as
    * `Tables` does. The checks score against its distinct pairs: relevance
    * is a set of pairs.
    */
  private def inputs(sc: Scenario): Inputs = {
    def ids(df: DataFrame) = df.select("docId").collect().map(_.getString(0)).distinct.sorted.toSeq
    val pairs = truthPairs(sc.truth)
    Inputs(sc, ids(sc.queries.units), ids(sc.candidates.units), pairs.distinct, pairs.size - pairs.distinct.size)
  }

  private def truthPairs(truth: DataFrame): Seq[(String, String)] =
    truth.collect().map(r => (r.getString(0), r.getString(1))).toSeq

  private def persisted: Set[Int] = spark.sparkContext.getPersistentRDDs.keySet.toSet

  /** Drops everything Spark still caches, so matches are independent. */
  private def release(): Unit = {
    spark.catalog.clearCache()
    spark.sparkContext.getPersistentRDDs.values.foreach(_.unpersist(blocking = true))
    System.gc()
  }

  private def collectRanking(df: DataFrame): Seq[Ranked] =
    df.select("queryId", "candId", "sim", "rank").collect()
      .map(r => Ranked(r.getString(0), r.getString(1), r.getDouble(2), r.getInt(3))).toSeq

  private def rowValues(r: RankMetrics.Row): Seq[Double] =
    Seq(r.mrr, r.map1, r.map5, r.map20, r.hp1, r.hp5, r.hp20)

  /** On a truth that lists a pair twice, `RankMetrics` counts that pair
    * twice in MAP@k, so there only MRR and HP@k are compared; that fault is
    * checked on fixed input beside every other operation
    * ([[repeatedPairsCheck]]).
    */
  private def rankingChecks(in: Inputs, ranking: Seq[Ranked], row: RankMetrics.Row): Seq[String] =
    Checks.metricsAgree(rowValues(row), Checks.measures(ranking, in.truth), withMap = in.repeatedPairs == 0) ++
      Checks.mrrAboveRandom(row.mrr, in.truth, in.candIds.size, bench.topK)

  /** Fixed input, the same in every run: the truth of the Corona scenario
    * at scenario seed 323, which lists some pairs twice, and the perfect
    * ranking of its distinct pairs (ranked data frame, truth, ranking,
    * distinct pairs).
    */
  private lazy val repeatedPairs: (DataFrame, DataFrame, Seq[Ranked], Seq[(String, String)]) = {
    import spark.implicits._
    val truth = Scenarios.corona(spark, Scenarios.CoronaParams(nGen = 250, seed = 323)).truth
    val pairs = truthPairs(truth).distinct
    val ranking = pairs.groupBy(_._1).toSeq.flatMap { case (q, ps) =>
      ps.map(_._2).sorted.take(bench.topK).zipWithIndex.map { case (c, i) => Ranked(q, c, 1.0, i + 1) }
    }
    (ranking.map(r => (r.queryId, r.candId, r.rank)).toDF("queryId", "candId", "rank"), truth, ranking, pairs)
  }

  /** One operation: `RankMetrics.mapAtK` at k = 1 on the fixed
    * repeated-pair input must equal MAP@1 recomputed from its distinct
    * pairs. It fails while `mapAtK` counts a repeated pair twice.
    */
  private def repeatedPairsCheck(): Unit = {
    val before = failed
    attempt {
      val (rankedDf, truth, ranking, pairs) = repeatedPairs
      val map1 = RankMetrics.mapAtK(rankedDf, truth, 1)
      val expected = Checks.measures(ranking, pairs)(1)
      ((), if (math.abs(map1 - expected) < Checks.Tolerance) Nil
           else Seq(s"MAP@1 on repeated pairs: RankMetrics.mapAtK $map1, recomputed $expected"))
    }
    knownFailed += failed - before
  }

  /** One match: merge map + `TDMatch.run`, which materialises the
    * ranking (timed as the match). Its ranking is checked against
    * brute-force top-k over its vectors. The ranking stays persisted until
    * [[finish]].
    */
  private def matchOnce(in: Inputs): Matched = {
    release()
    val before = persisted
    val c0 = cpuS
    val t0 = System.nanoTime()
    val merge = Tables.mergeFor(spark, in.sc, w.useGamma, w.useBuckets, bench)
    val res = TDMatch.run(spark, in.sc.queries, in.sc.candidates, w.config(in.sc, merge))
    val matchS = since(t0)
    val matchCpuS = cpuS - c0
    val ranking = collectRanking(res.ranked)
    Matched(res, ranking, matchS, matchCpuS, before,
      Checks.topK(ranking, in.queryIds, in.candIds, res.vectors, bench.dim, bench.topK))
  }

  /** Releases a match's ranking; returns the persistent RDDs it left. */
  private def finish(m: Matched): Int = {
    m.res.ranked.unpersist(blocking = true)
    // Spark holds persistent RDDs weakly: after a full GC only those a
    // cache still references are counted, whatever the GC timing.
    System.gc()
    val left = (persisted -- m.persistedBefore).size
    release()
    left
  }

  /** MRR recomputed from a match's ranking, checked to be well above
    * that of a random ranking.
    */
  private def mrrOf(in: Inputs, m: Matched): (Double, Seq[String]) = {
    val mrr = Checks.measures(m.ranking, in.truth).head
    (mrr, Checks.mrrAboveRandom(mrr, in.truth, in.candIds.size, bench.topK))
  }

  /** `TDMatch.rank` against a match's vectors, called for `--seconds` and
    * at least [[MinRankCalls]] times: the wall and CPU seconds of each
    * call, and the failed checks of every call's ranking against
    * brute-force top-k.
    */
  private def rankCalls(in: Inputs, m: Matched): (Seq[(Double, Double)], Seq[String]) = {
    val times = ListBuffer.empty[(Double, Double)]
    val errors = Seq.newBuilder[String]
    val start = System.nanoTime()
    while (times.size < MinRankCalls || (since(start) < seconds && uptimeS < DeadlineS)) {
      val c = cpuS
      val t = System.nanoTime()
      val ranking = collectRanking(
        TDMatch.rank(spark, in.sc.queries, in.sc.candidates, m.res.vectors, bench.dim, bench.topK))
      times += ((since(t), cpuS - c))
      errors ++= Checks.topK(ranking, in.queryIds, in.candIds, m.res.vectors, bench.dim, bench.topK)
    }
    (times.toSeq, errors.result())
  }

  /** Untimed: one match on the workload's small warm-up scenario. */
  private def warmUp(): Unit = {
    val sc = w.warmup(spark, seed)
    if (w.useGamma) Pretrained.vectors(spark, sc.world, bench.dim)
    finish(matchOnce(inputs(sc)))
  }

  /** Counts one operation; a thrown error or a failed check fails it.
    * The value is kept when only a check failed: it was measured.
    */
  private def attempt[A](op: => (A, Seq[String])): Option[A] = {
    attempted += 1
    try {
      val (a, errors) = op
      if (errors.nonEmpty) {
        failed += 1
        errors.take(20).foreach(e => Console.err.println(s"perfbench: check failed: $e"))
      }
      Some(a)
    } catch {
      case NonFatal(e) =>
        failed += 1
        Console.err.println(s"perfbench: operation failed: $e")
        e.printStackTrace()
        None
    }
  }

  private def peakRssMb: Double =
    try {
      val src = Source.fromFile("/proc/self/status")
      try src.getLines().collectFirst {
        case l if l.startsWith("VmHWM:") => l.split("\\s+")(1).toDouble * 1024 / 1e6
      }.getOrElse(Double.NaN)
      finally src.close()
    } catch { case NonFatal(_) => Double.NaN }

  /** A metric that could not be measured prints as NaN, which is not
    * JSON: `run.py` then fails the run instead of passing the line on.
    */
  private def result(metrics: Seq[(String, Double, String)]): String = {
    def num(v: Double) = if (v.isNaN || v.isInfinite) "NaN" else v.toString
    val ms = metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    s"""{"correct": ${failed == knownFailed}, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }

  // ------------------------------------------------------------ --trace 0

  def measured(): String = {
    // setup_s: JVM start until the session is up, the scenario generated
    // and, for γ merging, the pretrained stand-in trained.
    val sc = w.scenario(spark, seed)
    if (w.useGamma) Pretrained.vectors(spark, sc.world, bench.dim)
    val setupS = uptimeS
    val in = inputs(sc)
    log(f"set-up done: session up at $sessionUpS%.2f s, set-up $setupS%.2f s")
    // match_cpu_s: the first match in the JVM, as in a table job. One
    // operation: the match, with its ranking checked.
    val matched = attempt {
      val m = matchOnce(in)
      val (mrr, errors) = mrrOf(in, m)
      ((m, mrr), m.errors ++ errors)
    }.getOrElse(throw new IllegalStateException("the match failed; nothing to rank"))
    log(f"match done: ${matched._1.matchS}%.3f s wall, ${matched._1.matchCpuS}%.3f s CPU")
    // queries_per_cpu_s: one operation, all of its rank calls checked.
    val calls = attempt(rankCalls(in, matched._1)).getOrElse(Nil)
    log(s"rank calls done, s wall / s CPU: ${calls.map { case (t, c) => f"$t%.3f/$c%.3f" }.mkString(" ")}")
    log(f"wall clock: match_s ${matched._1.matchS}%.3f, queries_per_s ${in.queryIds.size / median(calls.map(_._1))}%.1f")
    repeatedPairsCheck()
    finish(matched._1)
    log(f"peak RSS $peakRssMb%.0f MB")
    result(Seq(
      ("setup_s", setupS, "s"),
      ("match_cpu_s", matched._1.matchCpuS, "s"),
      ("queries_per_cpu_s", in.queryIds.size / median(calls.map(_._2)), "1/s"),
      ("mrr", matched._2, "ratio")))
  }

  // ------------------------------------------------------------ --trace 1

  private def force(g: Graph): Graph = {
    val p = g.persist()
    p.nodes.count(); p.edges.count()
    p
  }

  private def local(g: Graph): (LocalGraph, Int) = {
    val edges = g.edges.collect().map(r => (r.getString(0), r.getString(1)))
    (LocalGraph(g.nodes.collect().map(r => r.getString(0) -> r.getString(1)).toMap, edges.toSet), edges.length)
  }

  def traced(): String = {
    val tr = new Tracer(spark)
    val sc = tr.span("data.scenario") {
      val sc = w.scenario(spark, seed)
      sc.queries.units.count(); sc.candidates.units.count(); sc.truth.count()
      sc
    }
    if (w.useGamma) tr.span("data.pretrained")(Pretrained.vectors(spark, sc.world, bench.dim))
    val in = inputs(sc)
    warmUp()
    log("warm-up done")
    val reference = attempt {
      val m = matchOnce(in)
      val (_, errors) = mrrOf(in, m)
      ((m.matchS, finish(m)), m.errors ++ errors)
    }
    log("reference match done")
    val layerCounts = attempt(tracedMatch(tr, in))
    release()
    repeatedPairsCheck()
    log("traced match done")

    val pipelineLayers = Seq("core.merge", "core.graph", "expand", "compress", "walk", "embed", "matching")
    val spans = tr.metrics(pipelineLayers)
    val pipelineWall = spans.collectFirst { case ("pipeline.wall_s", v, _) => v }.getOrElse(Double.NaN)
    val measuredValues = (spans ++ layerCounts.getOrElse(Nil) ++ Seq(
      ("pipeline.cached_rdds_left", reference.fold(Double.NaN)(_._2.toDouble), "count"),
      ("pipeline.tracing_overhead_s", reference.fold(Double.NaN)(pipelineWall - _._1), "s")))
      .map { case (n, v, _) => n -> v }.toMap
    val unknown = measuredValues.keySet -- Main.PerLayer.map(_._1)
    require(unknown.isEmpty, s"unlisted per-layer metrics: $unknown")
    // A layer the workload does not run reads 0 in every metric, its
    // `.calls` included: no call, no time, no jobs.
    val absent = Main.Called.filterNot(l => measuredValues.contains(s"$l.calls"))
    log(s"layers not run on ${w.name}: ${absent.mkString(", ")}")
    result(Main.PerLayer.map { case (n, u) =>
      val default = if (absent.exists(l => n.startsWith(l + "."))) 0.0 else Double.NaN
      (n, measuredValues.getOrElse(n, default), u)
    })
  }

  /** The pipeline of `TDMatch.run`, one public layer call per span, each
    * span forcing (persisting and counting) its layer's output; then the
    * layer counts and the graph, walk and ranking checks, outside spans.
    */
  private def tracedMatch(tr: Tracer, in: Inputs): (Seq[(String, Double, String)], Seq[String]) = {
    val merge = tr.span("core.merge") {
      val m = Tables.mergeFor(spark, in.sc, w.useGamma, w.useBuckets, bench).map(_.persist())
      m.foreach(_.count())
      m
    }
    val cfg = w.config(in.sc, merge)
    val base = tr.span("core.graph")(force(GraphBuilder.build(spark, in.sc.queries, in.sc.candidates,
      GraphBuilder.Config(maxN = cfg.maxN, mergeMap = cfg.mergeMap))))
    val expanded = cfg.expansion.map(kb => tr.span("expand")(force(Expansion.expand(spark, base, kb))))
    val uncompressed = expanded.getOrElse(base)
    val compressed = cfg.compression match {
      case TDMatch.Msp(beta)     => Some(tr.span("compress")(force(MSP.compress(spark, uncompressed, beta, cfg.seed))))
      case TDMatch.NoCompression => None
      case other                 => throw new IllegalArgumentException(s"no traced path for $other")
    }
    val graph = compressed.getOrElse(uncompressed)
    val sentences = tr.span("walk") {
      val s = RandomWalks.walks(spark, graph, cfg.numWalks, cfg.walkLength, cfg.seed).persist()
      s.count()
      s
    }
    val vectors = tr.span("embed")(Embeddings.train(spark, sentences,
      Embeddings.Config(cfg.vectorSize, cfg.window, 1, cfg.w2vIterations, cfg.seed)))
    val ranked = tr.span("matching") {
      val r = TDMatch.rank(spark, in.sc.queries, in.sc.candidates, vectors, cfg.vectorSize, cfg.topK).persist()
      r.count()
      r
    }
    val ranking = collectRanking(ranked)
    val row = tr.span("metrics")(RankMetrics.row(ranked, in.sc.truth))

    // Counts and checks, untraced.
    val (lBase, baseRows) = local(base)
    val (lGraph, graphRows) = local(graph)
    val walked = sentences.collect().map(_.getSeq[String](0)).toSeq
    val tokens = walked.map(_.size).sum.toDouble
    val errors = Seq.newBuilder[String]
    errors ++= Checks.wellFormed("core.graph", lBase, baseRows)
    errors ++= Checks.oneMetaPerDoc("core.graph", lBase, in.queryIds, in.candIds)
    val out = ListBuffer[(String, Double, String)](
      ("core.merge.map_rows", merge.fold(0L)(_.count()).toDouble, "count"),
      ("core.merge.gamma_terms", gammaTerms(in, cfg.maxN).toDouble, "count"),
      ("core.graph.nodes", lBase.nodes.size.toDouble, "count"),
      ("core.graph.edges", lBase.edges.size.toDouble, "count"),
      ("walk.sentences", walked.size.toDouble, "count"),
      ("walk.tokens", tokens, "count"),
      ("walk.fill_ratio", tokens / (walked.size.toDouble * cfg.walkLength), "ratio"),
      ("embed.vocab", vectors.size.toDouble, "count"),
      ("matching.pairs_scored", in.queryIds.size.toDouble * in.candIds.size, "count"),
      ("matching.zero_vector_queries",
        in.queryIds.count(q => vectors.get(s"m1::$q").forall(_.forall(_ == 0f))).toDouble, "count"))
    expanded.foreach { g =>
      val (lEx, exRows) = local(g)
      errors ++= Checks.wellFormed("expand", lEx, exRows)
      errors ++= Checks.oneMetaPerDoc("expand", lEx, in.queryIds, in.candIds)
      out ++= Seq(
        ("expand.nodes", lEx.nodes.size.toDouble, "count"),
        ("expand.edges", lEx.edges.size.toDouble, "count"),
        ("expand.kb_nodes", lEx.nodes.values.count(_ == "kb").toDouble, "count"),
        ("expand.pruned_nodes", (lBase.nodes.size + kbCandidates(in, lBase) - lEx.nodes.size).toDouble, "count"))
    }
    compressed.foreach { _ =>
      val (lIn, _) = local(uncompressed)
      errors ++= Checks.wellFormed("compress", lGraph, graphRows)
      errors ++= Checks.oneMetaPerDoc("compress", lGraph, in.queryIds, in.candIds)
      errors ++= Checks.subgraph(lIn, lGraph)
      out ++= Seq(
        ("compress.nodes", lGraph.nodes.size.toDouble, "count"),
        ("compress.edges", lGraph.edges.size.toDouble, "count"),
        ("compress.edge_keep_ratio", lGraph.edges.size.toDouble / lIn.edges.size, "ratio"))
    }
    errors ++= Checks.walks(lGraph, walked, cfg.numWalks, cfg.walkLength)
    errors ++= Checks.topK(ranking, in.queryIds, in.candIds, vectors, bench.dim, bench.topK)
    errors ++= rankingChecks(in, ranking, row)
    (out.toSeq, errors.result())
  }

  /** Distinct terms of both corpora that the γ merge finds in the
    * pretrained model's vocabulary (0 when the workload has no γ merge).
    */
  private def gammaTerms(in: Inputs, maxN: Int): Int =
    if (!w.useGamma) 0
    else {
      val pre = Pretrained.vectors(spark, in.sc.world, bench.dim)
      in.sc.queries.docTerms(spark, maxN).select("term")
        .union(in.sc.candidates.docTerms(spark, maxN).select("term"))
        .distinct().collect().count(r => pre.contains(r.getString(0)))
    }

  /** KB neighbours of the graph's data nodes that are not yet graph nodes:
    * the nodes expansion adds before it prunes sinks.
    */
  private def kbCandidates(in: Inputs, g: LocalGraph): Int = {
    val data = g.nodes.collect { case (id, k) if !Set("meta1", "meta2", "attr")(k) => id }.toSet
    in.sc.kb.triples(spark).collect().iterator
      .map(r => (r.getString(0), r.getString(1)))
      .flatMap { case (s, o) => (if (data(s)) Seq(o) else Nil) ++ (if (data(o)) Seq(s) else Nil) }
      .filterNot(g.nodes.contains).toSet.size
  }
}

object Run {
  /** The scenario and what the checks need of it, collected once. */
  final case class Inputs(sc: Scenario, queryIds: Seq[String], candIds: Seq[String],
      truth: Seq[(String, String)], repeatedPairs: Int)

  /** A match's output, its wall and CPU seconds, the persistent RDDs
    * before it, and its failed checks.
    */
  final case class Matched(res: TDMatch.Result, ranking: Seq[Checks.Ranked], matchS: Double,
      matchCpuS: Double, persistedBefore: Set[Int], errors: Seq[String])
}
