package repro.matching

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.embed.Embeddings
import scala.collection.mutable

/** Unsupervised metadata-node matching (paper §IV-B).
  *
  * Exact cosine top-k on the driver: each vector's squared norm is
  * computed once, every query is scored against every candidate, and
  * [[ranks]] keeps the k best. Output: `(queryId, candId, sim, rank)`,
  * per query by `sim` descending then `candId` ascending, rank 1 = most
  * similar. [[ranks]] is the one top-k selection; the supervised
  * baselines rank their own scores through it too.
  */
object Matcher {

  /** `(queryId, candId, sim, rank)`. */
  type Ranked = (String, String, Double, Int)

  /** Top-k candidates per query by cosine similarity; zero vectors score
    * 0 against everything, so they rank candidates by id.
    */
  def topK(
      spark: SparkSession,
      queries: Seq[(String, Array[Float])],
      candidates: Seq[(String, Array[Float])],
      k: Int): DataFrame = {
    val cIds = candidates.map(_._1).toArray
    val cVecs = candidates.map(_._2).toArray
    val cNorms = cVecs.map(v => Embeddings.dot(v, v))
    val rows = queries.flatMap { case (q, qv) =>
      val qNorm = Embeddings.dot(qv, qv)
      ranks(q, cIds.indices.iterator.map { j =>
        cIds(j) -> Embeddings.normalise(Embeddings.dot(qv, cVecs(j)), qNorm, cNorms(j))
      }, k)
    }
    toDf(spark, rows)
  }

  /** The `k` best `(candId, score)` pairs of query `q` as ranked rows:
    * score descending (Java's total order on doubles), then candidate id
    * ascending, ranks from 1. A bounded heap holds the k best seen so
    * far, so the rows equal the first k of a full sort.
    */
  def ranks(q: String, scored: Iterator[(String, Double)], k: Int): Seq[Ranked] = {
    // Head of the heap: the worst pair kept.
    val heap = mutable.PriorityQueue.empty[(String, Double)](Ordering.fromLessThan(better))
    scored.foreach { s =>
      if (heap.size < k) heap.enqueue(s)
      else if (k > 0 && better(s, heap.head)) { heap.dequeue(); heap.enqueue(s) }
    }
    heap.dequeueAll[(String, Double)].reverseIterator.zipWithIndex
      .map { case ((c, s), i) => (q, c, s, i + 1) }.toSeq
  }

  private def better(a: (String, Double), b: (String, Double)): Boolean = {
    val bySim = java.lang.Double.compare(a._2, b._2)
    if (bySim != 0) bySim > 0 else a._1 < b._1
  }

  /** Ranked rows as the `(queryId, candId, sim, rank)` DataFrame. */
  def toDf(spark: SparkSession, rows: Seq[Ranked]): DataFrame = {
    import spark.implicits._
    rows.toDF("queryId", "candId", "sim", "rank")
  }
}
