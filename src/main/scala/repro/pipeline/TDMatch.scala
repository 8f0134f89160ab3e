package repro.pipeline

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core._
import repro.compress.{MSP, SSuM}
import repro.embed.Embeddings
import repro.expand.{Expansion, KnowledgeBase}
import repro.matching.Matcher
import repro.walk.RandomWalks

/** End-to-end TDmatch pipeline: graph → (merge) → (expand) → (compress) →
  * walks → skip-gram embeddings → top-k matching (paper Figure 3).
  *
  * The configuration exposes every knob the paper ablates: n-gram size,
  * walk count/length, Word2Vec window, merging, expansion resource and
  * compression method.
  */
object TDMatch {

  sealed trait Compression
  case object NoCompression extends Compression
  final case class Msp(beta: Double) extends Compression
  final case class Ssum(keepFraction: Double) extends Compression

  final case class Config(
      maxN: Int = 3,
      numWalks: Int = 20,
      walkLength: Int = 15,
      window: Int = 3,
      vectorSize: Int = 64,
      w2vIterations: Int = 3,
      mergeMap: Option[DataFrame] = None,
      expansion: Option[KnowledgeBase] = None,
      compression: Compression = NoCompression,
      topK: Int = 20,
      seed: Long = 42)

  /** `graph` is the walked graph, `originalGraph` the base graph; both
    * live in driver memory, as do the rows of `ranked`.
    */
  final case class Result(
      graph: Graph,
      originalGraph: Graph,
      vectors: Map[String, Array[Float]],
      /** `(queryId, candId, sim, rank)` over raw document ids. */
      ranked: DataFrame,
      /** Wall-clock: graph + walks + embedding training (the paper's "train"). */
      trainSec: Double = 0.0,
      /** Wall-clock: matching all queries (the paper's "test"). */
      testSec: Double = 0.0)

  /** Build the graph for corpora `a` (queries, `m1::` ids) and `b`
    * (candidates, `m2::` ids), run the pipeline, and rank each document
    * of `a` against all documents of `b`.
    */
  def run(spark: SparkSession, a: Corpus, b: Corpus, cfg: Config): Result = {
    val t0 = System.nanoTime()
    val base = GraphBuilder.build(spark, a, b, GraphBuilder.Config(maxN = cfg.maxN, mergeMap = cfg.mergeMap))

    val expanded = cfg.expansion match {
      case Some(kb) => Expansion.expand(spark, base, kb)
      case None     => base
    }

    val graph = cfg.compression match {
      case NoCompression => expanded
      case Msp(beta)     => MSP.compress(spark, expanded, beta, cfg.seed)
      case Ssum(f)       => SSuM.compress(spark, expanded, f, cfg.seed)
    }

    val vectors = Embeddings.train(
      RandomWalks.sentences(graph, cfg.numWalks, cfg.walkLength, cfg.seed),
      Embeddings.Config(cfg.vectorSize, cfg.window, 1, cfg.w2vIterations, cfg.seed))
    val trainSec = (System.nanoTime() - t0) / 1e9

    val t1 = System.nanoTime()
    val ranked = rank(spark, a, b, vectors, cfg.vectorSize, cfg.topK)
    val testSec = (System.nanoTime() - t1) / 1e9
    Result(graph, base, vectors, ranked, trainSec, testSec)
  }

  /** Rank `b` documents for every `a` document by the cosine of their
    * metadata-node vectors; a document without a vector gets the zero
    * vector. Ids are the corpora's [[Corpus.docIds]]: once those are
    * known, as after [[run]], the call runs on the driver and starts no
    * Spark job.
    */
  def rank(
      spark: SparkSession,
      a: Corpus, b: Corpus,
      vectors: Map[String, Array[Float]],
      dim: Int,
      topK: Int): DataFrame = {
    val zero = new Array[Float](dim)
    def docs(c: Corpus, metaId: String => String): Seq[(String, Array[Float])] =
      c.docIds.map(id => id -> vectors.getOrElse(metaId(id), zero))
    Matcher.topK(spark, docs(a, Graph.metaId1), docs(b, Graph.metaId2), topK)
  }
}
