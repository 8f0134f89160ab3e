package repro.baselines

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.Corpus
import repro.data.{Pretrained, World}
import repro.embed.Embeddings
import repro.matching.Matcher

/** Embedding-based matching baselines (paper §V, "Baselines").
  *
  *  - **S-BE** (SentenceBERT stand-in): documents embedded as the mean of
  *    *pretrained* word vectors from the generic-domain model; no
  *    training on the corpora. Domain-specific tokens are OOV and
  *    contribute nothing — the failure mode the paper reports.
  *  - **W2VEC**: Word2Vec trained on the serialized documents of both
  *    corpora; document = mean of its token vectors.
  *  - **D2VEC** (Doc2Vec DBOW stand-in): same training corpus but each
  *    document's id token is prepended to its token sequence, so the
  *    model learns a vector *for the document id* from its co-occurrence
  *    with the content — the mechanism PV-DBOW uses.
  */
object EmbedBaselines {

  final case class Ranked(ranked: DataFrame, trainSec: Double, testSec: Double)

  private def time[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime(); val r = f; (r, (System.nanoTime() - t0) / 1e9)
  }

  /** S-BE: pretrained mean-vector matching. */
  def sbe(spark: SparkSession, world: World, a: Corpus, b: Corpus, k: Int, dim: Int = 48): Ranked = {
    val vectors = Pretrained.vectors(spark, world, dim)
    val qTok = DocTokens.map(spark, a, markers = false)
    val cTok = DocTokens.map(spark, b, markers = false)
    val (ranked, testT) = time {
      val q = embDf(spark, qTok, vectors, dim)
      val c = embDf(spark, cTok, vectors, dim)
      Matcher.topK(q, c, k).persist()
    }
    ranked.count()
    Ranked(ranked, 0.0, testT)
  }

  private def embDf(
      spark: SparkSession,
      toks: Map[String, Seq[String]],
      vectors: Map[String, Array[Float]],
      dim: Int): DataFrame = {
    import spark.implicits._
    toks.toSeq.map { case (id, ts) =>
      (id, Embeddings.meanVector(ts, vectors, dim).toSeq)
    }.toDF("id", "vec")
  }

  /** W2VEC / D2VEC: trained on the two corpora's serialized documents. */
  def trained(
      spark: SparkSession,
      a: Corpus, b: Corpus,
      k: Int,
      docIdToken: Boolean, // true → D2VEC variant
      dim: Int = 48,
      window: Int = 5,
      seed: Long = 23): Ranked = {
    import spark.implicits._
    val qTok = DocTokens.map(spark, a)
    val cTok = DocTokens.map(spark, b)
    def docTokenId(id: String, isQuery: Boolean) = if (isQuery) s"docq::$id" else s"docc::$id"

    val sentences = (qTok.toSeq.map { case (id, t) => (docTokenId(id, true), t) } ++
      cTok.toSeq.map { case (id, t) => (docTokenId(id, false), t) })
      .map { case (idTok, t) => if (docIdToken) (idTok +: t).toArray else t.toArray }
    val sentDf = spark.createDataset(sentences).toDF("sentence")

    val (vectors, trainT) = time {
      Embeddings.train(spark, sentDf,
        Embeddings.Config(vectorSize = dim, window = window, minCount = 1, iterations = 1, seed = seed))
    }
    val (ranked, testT) = time {
      val (q, c) =
        if (docIdToken)
          (spark.createDataset(qTok.keys.toSeq.map(id =>
              (id, vectors.getOrElse(docTokenId(id, true), new Array[Float](dim)).toSeq)))
            .toDF("id", "vec"),
            spark.createDataset(cTok.keys.toSeq.map(id =>
              (id, vectors.getOrElse(docTokenId(id, false), new Array[Float](dim)).toSeq)))
            .toDF("id", "vec"))
        else (embDf(spark, qTok, vectors, dim), embDf(spark, cTok, vectors, dim))
      Matcher.topK(q, c, k).persist()
    }
    ranked.count()
    Ranked(ranked, trainT, testT)
  }
}
