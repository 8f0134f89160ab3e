package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core.Corpus
import repro.matching.Matcher

/** L-BE* stand-in (paper §V-B): a supervised multi-label classifier over
  * taxonomy concepts, trained on 60% of the annotated documents.
  *
  * Implemented as a nearest-centroid classifier in tf-idf space — for
  * each concept, the centroid of its training documents' tf-idf vectors;
  * concepts without training documents back off to the tf-idf vector of
  * their own taxonomy text. A held-out document is scored against every
  * concept and the top-k concepts are returned. This mirrors the
  * published pattern: strong for documents annotated with one concept
  * (plenty of centroids), weaker for the long multi-concept tail.
  */
object MultiLabel {
  import Ranked.time

  def run(
      spark: SparkSession,
      docs: Corpus,        // queries (documents)
      taxonomy: Corpus,    // candidates (concepts)
      truthPairs: Seq[(String, String)],
      k: Int): Ranked = {
    val truthByQ = truthPairs.groupBy(_._1).view.mapValues(_.map(_._2).toSet).toMap
    val (trainQ, testQ) = Supervised.split(truthByQ.keys.toSeq)

    val ((dTok, idfMap, centroids), trainSec) = time {
      val dTok = DocTokens.map(spark, docs, markers = false)
      val cTok = DocTokens.map(spark, taxonomy, markers = false)
      val idfMap = Supervised.idf(dTok.values ++ cTok.values)
      def tfidf(tokens: Seq[String]) = Supervised.tfidfVec(tokens, idfMap)

      // Concept centroids from training docs; backoff to the concept text.
      val byConcept = trainQ.flatMap(q => truthByQ(q).map(c => c -> q))
        .groupBy(_._1).view.mapValues(_.map(_._2)).toMap
      val centroids: Map[String, Map[String, Double]] = cTok.map { case (cid, ctoks) =>
        byConcept.get(cid) match {
          case Some(ds) if ds.nonEmpty =>
            val vecs = ds.map(d => tfidf(dTok(d)))
            val sum = scala.collection.mutable.Map.empty[String, Double].withDefaultValue(0.0)
            vecs.foreach(_.foreach { case (t, v) => sum(t) += v })
            cid -> sum.view.mapValues(_ / ds.size).toMap
          case _ => cid -> tfidf(ctoks)
        }
      }
      (dTok, idfMap, centroids)
    }

    val (ranked, testSec) = time {
      val rows = testQ.flatMap { q =>
        val dv = Supervised.tfidfVec(dTok(q), idfMap)
        val scored = centroids.iterator.map { case (cid, cv) => (cid, Supervised.sparseCos(dv, cv)) }
        Matcher.ranks(q, scored, k)
      }
      Matcher.toDf(spark, rows)
    }
    Ranked(ranked, trainSec, testSec)
  }
}
