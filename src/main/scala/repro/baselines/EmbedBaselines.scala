package repro.baselines

import org.apache.spark.sql.SparkSession
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
  import Ranked.time

  /** S-BE: pretrained mean-vector matching. */
  def sbe(spark: SparkSession, world: World, a: Corpus, b: Corpus, k: Int, dim: Int = 48): Ranked = {
    val vectors = Pretrained.vectors(spark, world, dim)
    val qTok = DocTokens.map(spark, a, markers = false)
    val cTok = DocTokens.map(spark, b, markers = false)
    val (ranked, testT) = time {
      Matcher.topK(spark, meanVectors(qTok, vectors, dim), meanVectors(cTok, vectors, dim), k)
    }
    Ranked(ranked, 0.0, testT)
  }

  private def meanVectors(
      toks: Map[String, Seq[String]],
      vectors: Map[String, Array[Float]],
      dim: Int): Seq[(String, Array[Float])] =
    toks.toSeq.map { case (id, ts) => id -> Embeddings.meanVector(ts, vectors, dim) }

  /** W2VEC / D2VEC: trained on the two corpora's serialized documents. */
  def trained(
      spark: SparkSession,
      a: Corpus, b: Corpus,
      k: Int,
      docIdToken: Boolean, // true → D2VEC variant
      dim: Int = 48,
      window: Int = 5,
      seed: Long = 23): Ranked = {
    val qTok = DocTokens.map(spark, a)
    val cTok = DocTokens.map(spark, b)
    def docTokenId(id: String, isQuery: Boolean) = if (isQuery) s"docq::$id" else s"docc::$id"

    val sentences = (qTok.toSeq.map { case (id, t) => (docTokenId(id, true), t) } ++
      cTok.toSeq.map { case (id, t) => (docTokenId(id, false), t) })
      .map { case (idTok, t) => if (docIdToken) (idTok +: t).toArray else t.toArray }

    val (vectors, trainT) = time {
      Embeddings.train(sentences,
        Embeddings.Config(vectorSize = dim, window = window, minCount = 1, iterations = 3, seed = seed))
    }
    def idVectors(ids: Iterable[String], isQuery: Boolean) = ids.toSeq.map(id =>
      id -> vectors.getOrElse(docTokenId(id, isQuery), new Array[Float](dim)))
    val (ranked, testT) = time {
      val (q, c) =
        if (docIdToken) (idVectors(qTok.keys, true), idVectors(cTok.keys, false))
        else (meanVectors(qTok, vectors, dim), meanVectors(cTok, vectors, dim))
      Matcher.topK(spark, q, c, k)
    }
    Ranked(ranked, trainT, testT)
  }
}
