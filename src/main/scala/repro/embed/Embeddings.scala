package repro.embed

import org.apache.spark.mllib.feature.Word2Vec
import org.apache.spark.sql.{DataFrame, SparkSession}

/** Word-embedding training over walk sentences (paper Algorithm 4, last
  * step) and over plain text corpora (for the W2VEC/D2VEC baselines).
  *
  * Uses Spark MLlib's Word2Vec (skip-gram with hierarchical softmax).
  * The paper uses skip-gram (window 3) for text-to-data and CBOW
  * (window 15) for text tasks; MLlib has no CBOW, so all tasks run
  * skip-gram with the paper's window sizes (documented in DESIGN.md).
  */
object Embeddings {

  final case class Config(
      vectorSize: Int = 64,
      window: Int = 3,
      minCount: Int = 1,
      iterations: Int = 1,
      seed: Long = 17)

  /** Train on a DataFrame with a `sentence: Array[String]` column and
    * return the full vocabulary map `label → vector`.
    */
  def train(spark: SparkSession, sentences: DataFrame, cfg: Config = Config()): Map[String, Array[Float]] = {
    val rdd = sentences.select("sentence").rdd
      .map(_.getSeq[String](0).toIterable)
      .filter(_.nonEmpty)
    val w2v = new Word2Vec()
      .setVectorSize(cfg.vectorSize)
      .setWindowSize(cfg.window)
      .setMinCount(cfg.minCount)
      .setNumIterations(cfg.iterations)
      .setSeed(cfg.seed)
      .setNumPartitions(math.max(1, spark.sparkContext.defaultParallelism / 2))
    w2v.fit(rdd).getVectors
  }

  /** Float products summed in double; `dot(a, a)` is the squared norm. */
  def dot(a: Array[Float], b: Array[Float]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Cosine from a dot product and both squared norms; 0 when either
    * norm is 0. Callers that score one vector against many compute each
    * squared norm once and get the same bits as [[cosine]].
    */
  def normalise(dot: Double, sqNormA: Double, sqNormB: Double): Double =
    if (sqNormA == 0 || sqNormB == 0) 0.0 else dot / math.sqrt(sqNormA * sqNormB)

  def cosine(a: Array[Float], b: Array[Float]): Double =
    normalise(dot(a, b), dot(a, a), dot(b, b))

  /** Mean of token vectors — document embedding for baselines (the paper
    * aggregates word vectors for longer texts by averaging [38]).
    * Tokens absent from `vectors` are skipped; all-OOV docs map to the
    * zero vector.
    */
  def meanVector(tokens: Seq[String], vectors: Map[String, Array[Float]], dim: Int): Array[Float] = {
    val present = tokens.flatMap(vectors.get)
    val out = new Array[Float](dim)
    if (present.isEmpty) return out
    present.foreach { v => var i = 0; while (i < dim) { out(i) += v(i); i += 1 } }
    var i = 0
    while (i < dim) { out(i) /= present.size; i += 1 }
    out
  }
}
