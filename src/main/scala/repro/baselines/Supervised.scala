package repro.baselines

import org.apache.spark.mllib.classification.LogisticRegressionWithLBFGS
import org.apache.spark.mllib.linalg.Vectors
import org.apache.spark.mllib.regression.LabeledPoint
import org.apache.spark.sql.SparkSession
import repro.core.{Corpus, TextPrep}
import repro.data.{Pretrained, World}
import repro.embed.Embeddings
import repro.matching.Matcher
import scala.util.Random

/** Supervised baseline stand-ins (paper's RANK*, DITTO*, DEEP-M*, TAPAS*;
  * DESIGN.md substitution 5).
  *
  * Each method is a logistic-regression pair classifier over hand-built
  * similarity features, trained on 60% of the gold matches plus sampled
  * negatives, and evaluated by ranking all candidates for the held-out
  * queries. The per-method *feature masks* mirror what each original
  * system can see:
  *  - RANK*  — everything, incl. the pretrained-embedding cosine
  *    (learning-to-rank over strong text features);
  *  - DITTO* — serialized-text overlap only (tuples flattened to
  *    `[COL]/[VAL]` strings; no pretrained semantics, no numerics);
  *  - DEEP-M* — a reduced overlap view (attribute-summarized similarity);
  *  - TAPAS* — table-aware cell/numeric overlap, weak on long text.
  * None of them sees the cross-corpus graph, so — as published — they
  * trail TDmatch on domain-specific corpora while staying competitive on
  * generic text.
  */
object Supervised {
  import Ranked.time

  /** Feature indices. */
  private val UniJac = 0; private val BiJac = 1; private val TfIdfCos = 2
  private val PreCos = 3; private val NumOverlap = 4; private val Containment = 5
  private val LenRatio = 6
  val NumFeatures = 7

  final case class Method(name: String, mask: Array[Int])
  val Rank   = Method("RANK*", Array(UniJac, BiJac, TfIdfCos, PreCos, Containment, LenRatio))
  val Ditto  = Method("DITTO*", Array(UniJac, BiJac, TfIdfCos, Containment, LenRatio))
  val DeepM  = Method("DEEP-M*", Array(UniJac, TfIdfCos, LenRatio))
  val Tapas  = Method("TAPAS*", Array(UniJac, NumOverlap, Containment))

  /** Per-document precomputed view for fast pair-feature computation. */
  final case class DocView(
      uni: Set[String], bi: Set[String], tfidf: Map[String, Double],
      preVec: Array[Float], nums: Array[Double], len: Int) extends Serializable

  final case class Model(method: Method, weights: Array[Double], intercept: Double)
      extends Serializable {
    def score(f: Array[Double]): Double = {
      var z = intercept; var i = 0
      while (i < f.length) { z += weights(i) * f(i); i += 1 }
      1.0 / (1.0 + math.exp(-z))
    }
  }

  def idf(docTokens: Iterable[Seq[String]]): Map[String, Double] = {
    val n = docTokens.size.toDouble
    val df = scala.collection.mutable.Map.empty[String, Int].withDefaultValue(0)
    docTokens.foreach(_.distinct.foreach(t => df(t) += 1))
    df.map { case (t, d) => t -> math.log((n + 1) / (d + 1)) }.toMap
  }

  def tfidfVec(tokens: Seq[String], idfMap: Map[String, Double]): Map[String, Double] = {
    val tf = tokens.groupBy(identity).view.mapValues(_.size.toDouble).toMap
    tf.map { case (t, f) => t -> f * idfMap.getOrElse(t, 0.0) }
  }

  def sparseCos(a: Map[String, Double], b: Map[String, Double]): Double = {
    if (a.isEmpty || b.isEmpty) return 0.0
    val (small, large) = if (a.size < b.size) (a, b) else (b, a)
    var dot = 0.0
    small.foreach { case (t, v) => large.get(t).foreach(w => dot += v * w) }
    val na = math.sqrt(a.values.map(v => v * v).sum)
    val nb = math.sqrt(b.values.map(v => v * v).sum)
    if (na == 0 || nb == 0) 0.0 else dot / (na * nb)
  }

  private def jaccard(a: Set[String], b: Set[String]): Double = {
    if (a.isEmpty && b.isEmpty) return 0.0
    a.intersect(b).size.toDouble / a.union(b).size
  }

  def view(tokens: Seq[String], idfMap: Map[String, Double],
           pre: Map[String, Array[Float]], dim: Int): DocView = {
    val uni = tokens.toSet
    val bi  = if (tokens.size < 2) Set.empty[String]
              else tokens.sliding(2).map(_.mkString("_")).toSet
    DocView(uni, bi, tfidfVec(tokens, idfMap),
      Embeddings.meanVector(tokens, pre, dim),
      tokens.filter(TextPrep.isNumeric).map(_.toDouble).toArray, tokens.size)
  }

  def features(q: DocView, c: DocView): Array[Double] = {
    val f = new Array[Double](NumFeatures)
    f(UniJac) = jaccard(q.uni, c.uni)
    f(BiJac) = jaccard(q.bi, c.bi)
    f(TfIdfCos) = sparseCos(q.tfidf, c.tfidf)
    f(PreCos) = Embeddings.cosine(q.preVec, c.preVec)
    f(NumOverlap) =
      if (q.nums.isEmpty) 0.0
      else q.nums.count(v => c.nums.exists(w => math.abs(w - v) <= math.max(2.0, 0.02 * math.abs(v)))).toDouble / q.nums.length
    f(Containment) = if (q.uni.isEmpty) 0.0 else q.uni.intersect(c.uni).size.toDouble / q.uni.size
    f(LenRatio) = math.min(q.len, c.len).toDouble / math.max(1, math.max(q.len, c.len))
    f
  }

  private def mask(f: Array[Double], m: Method): Array[Double] = m.mask.map(f)

  /** 60/40 deterministic query split (sorted ids, first 60% train). */
  def split(queryIds: Seq[String], trainFrac: Double = 0.6): (Seq[String], Seq[String]) = {
    val sorted = queryIds.sorted
    val n = (sorted.size * trainFrac).toInt
    (sorted.take(n), sorted.drop(n))
  }

  /** Train + rank. `truthPairs` are the gold `(queryId, candId)` pairs.
    * Ranking is produced for the held-out 40% of the queries.
    */
  def run(
      spark: SparkSession,
      world: World,
      method: Method,
      a: Corpus, b: Corpus,
      truthPairs: Seq[(String, String)],
      k: Int,
      dim: Int = 48,
      seed: Long = 99,
      negPerPos: Int = 5): Ranked = {
    val truthByQ = truthPairs.groupBy(_._1).view.mapValues(_.map(_._2).toSet).toMap
    val (trainQ, testQ) = split(truthByQ.keys.toSeq)

    val ((qViews, cViews, model), trainSec) = time {
      val pre  = Pretrained.vectors(spark, world, dim)
      val qTok = DocTokens.map(spark, a)
      val cTok = DocTokens.map(spark, b)
      val idfMap = idf(qTok.values ++ cTok.values)
      val qViews = qTok.map { case (id, t) => id -> view(t, idfMap, pre, dim) }
      val cViews = cTok.map { case (id, t) => id -> view(t, idfMap, pre, dim) }

      val candIds = cViews.keys.toVector.sorted
      val rnd = new Random(seed)
      val samples = trainQ.flatMap { q =>
        val qv = qViews(q)
        val gold = truthByQ(q).filter(cViews.contains)
        val pos = gold.toSeq.map(c => LabeledPoint(1.0, Vectors.dense(mask(features(qv, cViews(c)), method))))
        val negs = (0 until negPerPos * math.max(1, gold.size)).map { _ =>
          var c = candIds(rnd.nextInt(candIds.size))
          var tries = 0
          while (gold.contains(c) && tries < 10) { c = candIds(rnd.nextInt(candIds.size)); tries += 1 }
          LabeledPoint(0.0, Vectors.dense(mask(features(qv, cViews(c)), method)))
        }
        pos ++ negs
      }
      val lr = new LogisticRegressionWithLBFGS().setNumClasses(2)
      lr.optimizer.setNumIterations(50)
      val fitted = lr.run(spark.sparkContext.parallelize(samples,
        math.max(1, spark.sparkContext.defaultParallelism)))
      (qViews, cViews, Model(method, fitted.weights.toArray, fitted.intercept))
    }

    val (ranked, testSec) = time {
      val bcC = spark.sparkContext.broadcast(cViews)
      val bcQ = spark.sparkContext.broadcast(qViews.filter { case (id, _) => testQ.contains(id) })
      val bcM = spark.sparkContext.broadcast(model)
      val rankedRows = spark.sparkContext
        .parallelize(testQ.toIndexedSeq, math.max(1, spark.sparkContext.defaultParallelism))
        .flatMap { q =>
          val qv = bcQ.value(q)
          val m = bcM.value
          val scored = bcC.value.iterator.map { case (c, cv) => (c, m.score(mask(features(qv, cv), m.method))) }
          Matcher.ranks(q, scored, k)
        }
        .collect()
      Matcher.toDf(spark, rankedRows.toIndexedSeq)
    }
    Ranked(ranked, trainSec, testSec)
  }
}
