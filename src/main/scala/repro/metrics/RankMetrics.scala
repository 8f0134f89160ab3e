package repro.metrics

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** Ranking quality measures used in Tables I, II, IV, V, VI:
  * MRR, MAP@k and HasPositive@k (paper §V-A).
  *
  * Inputs:
  *  - `ranked`: `(queryId, candId, rank)` — rank 1 = best; should extend
  *    at least to the largest k evaluated;
  *  - `truth`:  `(queryId, candId)` — the relevant candidates per query.
  * Queries present in `truth` but absent from `ranked` (or with no
  * relevant candidate ranked) contribute 0, as in standard IR practice.
  */
object RankMetrics {

  /** Per-query reciprocal rank of the first relevant candidate. */
  def mrr(ranked: DataFrame, truth: DataFrame): Double = new Collected(ranked, truth).mrr

  /** MAP truncated at rank k:
    * AP@k = Σ_{i≤k, rel(i)} Precision(i) / min(|relevant|, k), averaged
    * over queries. Relevance is the set of distinct truth pairs: a pair
    * the truth lists twice counts once.
    */
  def mapAtK(ranked: DataFrame, truth: DataFrame, k: Int): Double = new Collected(ranked, truth).mapAtK(k)

  /** Fraction of queries with at least one relevant candidate in top-k. */
  def hasPositiveAtK(ranked: DataFrame, truth: DataFrame, k: Int): Double =
    new Collected(ranked, truth).hasPositiveAtK(k)

  /** The full measure row used by Tables I/II/IV/V/VI. */
  final case class Row(
      mrr: Double,
      map1: Double, map5: Double, map20: Double,
      hp1: Double, hp5: Double, hp20: Double)

  /** All seven measures from one collect of each input. */
  def row(ranked: DataFrame, truth: DataFrame): Row = {
    val c = new Collected(ranked, truth)
    Row(c.mrr, c.mapAtK(1), c.mapAtK(5), c.mapAtK(20),
      c.hasPositiveAtK(1), c.hasPositiveAtK(5), c.hasPositiveAtK(20))
  }

  /** Both inputs collected to the driver: the distinct relevant
    * candidates of each truth query, and for each query the ranks of its
    * ranked rows that are relevant, ascending (one per row).
    */
  private final class Collected(ranked: DataFrame, truth: DataFrame) {
    private val relevant: Map[String, Set[String]] =
      truth.select("queryId", "candId").collect().toSeq
        .groupMap(_.getString(0))(_.getString(1)).view.mapValues(_.toSet).toMap
    private val hitRanks: Map[String, Seq[Long]] =
      ranked.select(col("queryId"), col("candId"), col("rank").cast("long")).collect().toSeq
        .filter(r => relevant.get(r.getString(0)).exists(_.contains(r.getString(1))))
        .groupMap(_.getString(0))(_.getLong(2)).view.mapValues(_.sorted).toMap

    /** Mean of `f` over the truth's queries; 0 when there are none. */
    private def mean(f: String => Double): Double =
      if (relevant.isEmpty) 0.0 else relevant.keys.toSeq.map(f).sum / relevant.size
    private def hits(q: String): Seq[Long] = hitRanks.getOrElse(q, Seq.empty)

    def mrr: Double = mean(q => hits(q).headOption.fold(0.0)(1.0 / _))

    // Precision at the i-th hit (from 1) = i / its rank.
    def mapAtK(k: Int): Double = mean { q =>
      val top = hits(q).takeWhile(_ <= k)
      if (top.isEmpty) 0.0
      else top.zipWithIndex.map { case (r, i) => (i + 1).toDouble / r }.sum / math.min(relevant(q).size, k)
    }

    def hasPositiveAtK(k: Int): Double = mean(q => if (hits(q).headOption.exists(_ <= k)) 1.0 else 0.0)
  }
}
