package repro.metrics

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

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
  def mrr(ranked: DataFrame, truth: DataFrame): Double = {
    val queries = truth.select("queryId").distinct()
    val firstHit = ranked
      .join(truth, Seq("queryId", "candId"))
      .groupBy("queryId")
      .agg(min(col("rank")).as("firstRank"))
    val rr = queries
      .join(firstHit, Seq("queryId"), "left")
      .select(coalesce(lit(1.0) / col("firstRank"), lit(0.0)).as("rr"))
      .agg(coalesce(avg("rr"), lit(0.0)))
      .head()
      .getDouble(0)
    rr
  }

  /** MAP truncated at rank k:
    * AP@k = Σ_{i≤k, rel(i)} Precision(i) / min(|relevant|, k), averaged
    * over queries. Relevance is the set of distinct truth pairs: a pair
    * the truth lists twice counts once.
    */
  def mapAtK(ranked: DataFrame, truth: DataFrame, k: Int): Double = {
    val relevant = truth.select("queryId", "candId").distinct()
    val queries = relevant.select("queryId").distinct()
    val nRel = relevant.groupBy("queryId").agg(count("*").as("nRel"))
    val hits = ranked
      .where(col("rank") <= k)
      .join(relevant, Seq("queryId", "candId"))
    // Precision at each hit position = (#hits with rank ≤ this rank) / rank.
    val w = org.apache.spark.sql.expressions.Window
      .partitionBy("queryId").orderBy("rank")
    val ap = hits
      .withColumn("hitIdx", row_number().over(w))
      .withColumn("precAt", col("hitIdx").cast("double") / col("rank"))
      .groupBy("queryId")
      .agg(sum("precAt").as("sumPrec"))
      .join(nRel, Seq("queryId"))
      .select(col("queryId"), (col("sumPrec") / least(col("nRel"), lit(k))).as("ap"))
    queries
      .join(ap, Seq("queryId"), "left")
      .select(coalesce(col("ap"), lit(0.0)).as("ap"))
      .agg(coalesce(avg("ap"), lit(0.0)))
      .head()
      .getDouble(0)
  }

  /** Fraction of queries with at least one relevant candidate in top-k. */
  def hasPositiveAtK(ranked: DataFrame, truth: DataFrame, k: Int): Double = {
    val queries = truth.select("queryId").distinct()
    val hit = ranked
      .where(col("rank") <= k)
      .join(truth, Seq("queryId", "candId"))
      .select("queryId").distinct()
      .withColumn("hit", lit(1.0))
    queries
      .join(hit, Seq("queryId"), "left")
      .select(coalesce(col("hit"), lit(0.0)).as("hit"))
      .agg(coalesce(avg("hit"), lit(0.0)))
      .head()
      .getDouble(0)
  }

  /** The full measure row used by Tables I/II/IV/V/VI. */
  final case class Row(
      mrr: Double,
      map1: Double, map5: Double, map20: Double,
      hp1: Double, hp5: Double, hp20: Double) {
    def formatted: String =
      f"$mrr%.3f ${map1}%.3f ${map5}%.3f ${map20}%.3f ${hp1}%.3f ${hp5}%.3f ${hp20}%.3f"
  }

  def row(ranked: DataFrame, truth: DataFrame): Row = {
    val r = ranked.persist()
    val t = truth.persist()
    val out = Row(
      mrr(r, t),
      mapAtK(r, t, 1), mapAtK(r, t, 5), mapAtK(r, t, 20),
      hasPositiveAtK(r, t, 1), hasPositiveAtK(r, t, 5), hasPositiveAtK(r, t, 20))
    r.unpersist(); t.unpersist()
    out
  }
}
