package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

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

  /** Build the graph for corpora A and B on the driver, from each corpus's
    * [[Corpus.terms]] (tokenised once per corpus and `maxN`) and the merge
    * map, collected once. Metadata nodes come from each corpus's
    * [[Corpus.docIds]], so a later `TDMatch.rank` on the same corpora finds
    * the ids already known; a repeat build on the same corpora starts no
    * Spark job while the merge map is a local relation.
    */
  def build(spark: SparkSession, a: Corpus, b: Corpus, cfg: Config = Config()): Graph = {
    // A variant listed with several canons yields each of them, as a join would.
    val merge: Map[String, Seq[String]] = cfg.mergeMap.fold(Map.empty[String, Seq[String]])(
      _.select("variant", "canon").collect().toSeq
        .groupMap(_.getString(0))(_.getString(1)))
    def merged(c: Corpus): IndexedSeq[(String, String, String)] =
      c.terms(cfg.maxN).rows.flatMap { case (docId, attr, term) =>
        merge.getOrElse(term, Seq(term)).map((docId, attr, _))
      }.distinct
    val (dtA, dtB) = (merged(a), merged(b))

    // §II-B: data nodes come from the corpus with fewer distinct tokens.
    val aSeeds =
      !cfg.autoOrder || a.distinctTokenCount(cfg.maxN) <= b.distinctTokenCount(cfg.maxN)
    val seedTerms = (if (aSeeds) dtA else dtB).map(_._3).toSet

    // The second corpus keeps only terms already present in the graph;
    // on the seeding corpus that filter keeps every row.
    def edges(c: Corpus, dt: IndexedSeq[(String, String, String)], meta: String => String)
        : Iterator[(String, String)] = {
      val kept = dt.filter(r => seedTerms(r._3))
      kept.iterator.map { case (docId, _, term) => (meta(docId), term) } ++
        kept.iterator.collect { case (_, attr, term) if attr != null => (Graph.attrId(attr), term) } ++
        c.hierarchy(spark).collect().iterator.map(r => (meta(r.getString(0)), meta(r.getString(1))))
    }
    def attrNodes(c: Corpus): Seq[(String, String)] =
      c.terms(cfg.maxN).attrs.map(at => (Graph.attrId(at), Kind.Attr))

    val nodes = seedTerms.toSeq.map((_, Kind.Term)) ++ attrNodes(a) ++ attrNodes(b) ++
      a.docIds.map(id => (Graph.metaId1(id), Kind.Meta1)) ++
      b.docIds.map(id => (Graph.metaId2(id), Kind.Meta2))
    Graph.of(nodes, (edges(a, dtA, Graph.metaId1) ++ edges(b, dtB, Graph.metaId2)).toSeq)
  }
}
