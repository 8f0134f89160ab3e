package repro.core

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Graph creation (paper Algorithm 1 + §II-A/B/C/D).
  *
  * Builds the heterogeneous graph over two corpora:
  *  - metadata nodes for every document of both corpora; attribute nodes
  *    for tables; hierarchy (metadata–metadata) edges for structured text;
  *  - data nodes for the *first* corpus's terms only — terms of the second
  *    corpus that are not already in the graph are filtered out (§II-B);
  *  - optional term-merging map (`variant → canonical`) applied to both
  *    corpora before node/edge creation (§II-C: dictionary, bucketing,
  *    embedding-γ merges; stemming already happens in [[TextPrep]]).
  */
object GraphBuilder {

  final case class Config(
      maxN: Int = 3,
      /** `(variant, canon)` term-rewrite map; empty → no merging. */
      mergeMap: Option[DataFrame] = None,
      /** When true, pick the corpus with fewer distinct tokens as the
        * node-seeding corpus automatically (paper default). The *metadata*
        * prefixes still follow the argument order: corpus A → `m1::`.
        */
      autoOrder: Boolean = true,
  )

  /** Apply a term-merge mapping to a `(docId, attr, term)` DataFrame. */
  private def applyMerge(dt: DataFrame, mergeMap: Option[DataFrame]): DataFrame =
    mergeMap match {
      case None => dt
      case Some(m) =>
        dt.join(m.withColumnRenamed("variant", "term"), Seq("term"), "left")
          .select(
            col("docId"),
            col("attr"),
            coalesce(col("canon"), col("term")).as("term"))
          .distinct()
    }

  /** Build the graph for corpora A and B. Doc-term extraction, the merge
    * map and the other corpus's term filter run in Spark; the nodes and
    * edges they give are collected once into a [[Graph]]. Metadata nodes
    * come from each corpus's [[Corpus.docIds]], so a later
    * `TDMatch.rank` on the same corpora finds the ids already known.
    */
  def build(spark: SparkSession, a: Corpus, b: Corpus, cfg: Config = Config()): Graph = {
    val dtA = applyMerge(a.docTerms(spark, cfg.maxN), cfg.mergeMap)
    val dtB = applyMerge(b.docTerms(spark, cfg.maxN), cfg.mergeMap)

    // §II-B: data nodes come from the corpus with fewer distinct tokens.
    val aSeeds =
      !cfg.autoOrder || a.distinctTokenCount(spark) <= b.distinctTokenCount(spark)
    val (dtSeed, dtOther) = if (aSeeds) (dtA, dtB) else (dtB, dtA)

    // Second corpus keeps only terms already present in the graph.
    val dtOtherKept = dtOther.join(dtSeed.select("term"), Seq("term"), "left_semi")

    val (dtAKept, dtBKept) = if (aSeeds) (dtSeed, dtOtherKept) else (dtOtherKept, dtSeed)

    // Nodes are `(id, null, kind)` rows and edges `(src, dst, null)` rows of
    // one DataFrame; `Graph.of` drops the repeats.
    def node(id: Column, kind: String): Seq[Column] =
      Seq(id, lit(null).cast("string"), lit(kind))
    def edge(src: Column, dst: Column): Seq[Column] =
      Seq(src, dst, lit(null).cast("string"))
    def meta(prefix: String): Column = concat(lit(prefix), col("docId"))
    val attr = concat(lit("attr::"), col("attr"))

    def docRows(c: Corpus, dt: DataFrame, prefix: String): Seq[DataFrame] = {
      val rows = Seq(
        dt.select(edge(meta(prefix), col("term")): _*),
        c.hierarchy(spark).select(
          edge(concat(lit(prefix), col("child")), concat(lit(prefix), col("parent"))): _*))
      if (!c.isTable) rows
      else {
        val withAttr = col("attr").isNotNull
        rows ++ Seq(
          c.units.where(withAttr).select(node(attr, Kind.Attr): _*),
          dt.where(withAttr).select(edge(attr, col("term")): _*))
      }
    }

    val rows = (dtSeed.select(node(col("term"), Kind.Term): _*) +:
        (docRows(a, dtAKept, "m1::") ++ docRows(b, dtBKept, "m2::")))
      .reduce(_ union _)
      .collect()
    val (nodeRows, edgeRows) = rows.partition(r => !r.isNullAt(2))
    // Metadata nodes: one per document id, read on the driver.
    val metaNodes = a.docIds.map(id => (Graph.metaId1(id), Kind.Meta1)) ++
      b.docIds.map(id => (Graph.metaId2(id), Kind.Meta2))
    Graph.of(
      nodeRows.map(r => (r.getString(0), r.getString(2))) ++ metaNodes,
      edgeRows.map(r => (r.getString(0), r.getString(1))))
  }
}
