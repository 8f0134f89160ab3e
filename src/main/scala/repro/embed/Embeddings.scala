package repro.embed

import java.util.SplittableRandom
import org.apache.spark.sql.{DataFrame, SparkSession}

/** Word embeddings by skip-gram with negative sampling (SGNS; Mikolov et
  * al., NeurIPS 2013): over walk sentences (paper Algorithm 4, last step),
  * over the generic corpus of the pretrained model, and over plain text
  * for the W2VEC/D2VEC baselines.
  *
  * Training runs on the driver, on one thread, and starts no Spark job.
  * The constants are word2vec.c's: 5 negatives drawn from count^0.75, a
  * learning rate that starts at 0.025 and falls linearly over all epochs'
  * tokens, a random reduced window per centre token, input vectors
  * uniform in ±0.5/dim and output vectors at 0. Every draw comes from one
  * `SplittableRandom(cfg.seed)`, and the sigmoid table and the noise
  * weights use `StrictMath`, so the vectors depend only on the sentences,
  * their order and the config.
  *
  * The paper uses skip-gram (window 3) for text-to-data and CBOW (window
  * 15) for text tasks; there is no CBOW here, so all tasks run skip-gram
  * with the paper's window sizes (documented in DESIGN.md).
  */
object Embeddings {

  final case class Config(
      vectorSize: Int = 64,
      window: Int = 3,
      minCount: Int = 1,
      iterations: Int = 1,
      seed: Long = 17)

  private val Negatives = 5
  private val Alpha0    = 0.025f
  private val MaxExp    = 6.0f
  private val TableSize = 1000

  /** The logistic function at `TableSize` points spaced evenly over
    * `[-MaxExp, MaxExp)`, as word2vec.c tabulates it.
    */
  private val sigmoidTable: Array[Float] = Array.tabulate(TableSize) { i =>
    val e = StrictMath.exp((i.toDouble / TableSize * 2 - 1) * MaxExp)
    (e / (e + 1)).toFloat
  }

  /** Gradient factor `(label − σ(f)) · alpha`, with σ saturated outside
    * `(-MaxExp, MaxExp)`.
    */
  private def gradient(f: Float, label: Int, alpha: Float): Float =
    if (f >= MaxExp) (label - 1) * alpha
    else if (f <= -MaxExp) label * alpha
    else (label - sigmoidTable(((f + MaxExp) * (TableSize / (2 * MaxExp))).toInt)) * alpha

  /** Input (`syn0`) and output (`syn1`) vectors, one array per word. */
  private[embed] final class Weights(val syn0: Array[Array[Float]], val syn1: Array[Array[Float]]) {
    private val neu1e = new Array[Float](syn0.headOption.fold(0)(_.length))

    /** One SGNS step, in word2vec.c's order: the input vector of `input`
      * predicts `centre` (label 1) and each of `negatives` that is not
      * `centre` (label 0). Each output vector is read before it is
      * updated; the input vector takes the summed gradient last.
      */
    def step(input: Int, centre: Int, negatives: Array[Int], alpha: Float): Unit = {
      val x = syn0(input)
      java.util.Arrays.fill(neu1e, 0f)
      update(x, syn1(centre), 1, alpha)
      var d = 0
      while (d < negatives.length) {
        if (negatives(d) != centre) update(x, syn1(negatives(d)), 0, alpha)
        d += 1
      }
      var k = 0
      while (k < x.length) { x(k) += neu1e(k); k += 1 }
    }

    private def update(x: Array[Float], y: Array[Float], label: Int, alpha: Float): Unit = {
      // Four partial sums: the float adds of one sum would wait on each other.
      var f0 = 0f; var f1 = 0f; var f2 = 0f; var f3 = 0f
      var k = 0
      while (k + 3 < x.length) {
        f0 += x(k) * y(k); f1 += x(k + 1) * y(k + 1); f2 += x(k + 2) * y(k + 2); f3 += x(k + 3) * y(k + 3)
        k += 4
      }
      while (k < x.length) { f0 += x(k) * y(k); k += 1 }
      val g = gradient((f0 + f1) + (f2 + f3), label, alpha)
      k = 0
      while (k < x.length) {
        neu1e(k) += g * y(k)
        y(k) += g * x(k)
        k += 1
      }
    }
  }

  /** Words drawn in proportion to `weights` by Vose's alias method: one
    * uniform double picks a word by its integer part and keeps it or takes
    * its alias by the fraction.
    */
  private final class Noise(weights: Array[Double]) {
    private val n     = weights.length
    private val keep  = new Array[Double](n)
    private val alias = new Array[Int](n)
    locally {
      val total  = weights.sum
      val scaled = weights.map(_ * n / total)
      val (small, large) = scaled.indices.partition(scaled(_) < 1)
      val smallStack = scala.collection.mutable.Stack.from(small)
      val largeStack = scala.collection.mutable.Stack.from(large)
      while (smallStack.nonEmpty && largeStack.nonEmpty) {
        val s = smallStack.pop(); val l = largeStack.pop()
        keep(s) = scaled(s); alias(s) = l
        scaled(l) += scaled(s) - 1
        (if (scaled(l) < 1) smallStack else largeStack).push(l)
      }
      (smallStack ++ largeStack).foreach(w => keep(w) = 1)
    }

    def draw(rnd: SplittableRandom): Int = {
      val u = rnd.nextDouble() * n
      val w = u.toInt
      if (u - w < keep(w)) w else alias(w)
    }
  }

  /** Train on `sentences` and return the vocabulary map `token → vector`.
    * The vocabulary is the sorted distinct tokens that occur at least
    * `cfg.minCount` times; other tokens are dropped from their sentences
    * before the windows are taken. No vocabulary gives an empty map.
    */
  def train(sentences: Seq[Array[String]], cfg: Config): Map[String, Array[Float]] = {
    require(cfg.vectorSize > 0 && cfg.window > 0 && cfg.iterations > 0, s"invalid $cfg")
    val counts = scala.collection.mutable.HashMap.empty[String, Int]
    sentences.foreach(_.foreach(t => counts(t) = counts.getOrElse(t, 0) + 1))
    val vocab = counts.collect { case (w, c) if c >= cfg.minCount => w }.toArray.sorted
    if (vocab.isEmpty) return Map.empty
    val id = vocab.zipWithIndex.toMap
    val corpus = sentences.map(_.flatMap(id.get)).filter(_.nonEmpty).toArray

    val noise = new Noise(vocab.map(w => StrictMath.pow(counts(w), 0.75)))
    val rnd = new SplittableRandom(cfg.seed)
    val dim = cfg.vectorSize
    val weights = new Weights(
      Array.fill(vocab.length, dim)(((rnd.nextDouble() - 0.5) / dim).toFloat),
      Array.ofDim[Float](vocab.length, dim))

    val negatives = new Array[Int](Negatives)
    val total = cfg.iterations * corpus.map(_.length.toLong).sum
    var done = 0L
    for (_ <- 0 until cfg.iterations; s <- corpus; pos <- s.indices) {
      val alpha = math.max(Alpha0 * (1 - done.toFloat / (total + 1)), Alpha0 * 1e-4f)
      done += 1
      val reduce = rnd.nextInt(cfg.window)
      var a = reduce
      while (a < 2 * cfg.window + 1 - reduce) {
        val c = pos - cfg.window + a
        if (a != cfg.window && c >= 0 && c < s.length) {
          var d = 0
          while (d < Negatives) { negatives(d) = noise.draw(rnd); d += 1 }
          weights.step(s(c), s(pos), negatives, alpha)
        }
        a += 1
      }
    }
    vocab.indices.map(w => vocab(w) -> weights.syn0(w)).toMap
  }

  /** Train on a DataFrame with a `sentence: Array[String]` column, read in
    * row order; the same as [[train]] on the collected sentences.
    */
  def train(spark: SparkSession, sentences: DataFrame, cfg: Config = Config()): Map[String, Array[Float]] =
    train(sentences.select("sentence").collect().toSeq.map(_.getSeq[String](0).toArray), cfg)

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
