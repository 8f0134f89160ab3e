package repro.expand

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.{Graph, Kind}

/** Graph expansion with an external resource (paper Algorithm 2).
  *
  * For every non-metadata node, fetch all its connections in the resource
  * and add the corresponding nodes (kind `kb`) and edges. Then clean the
  * graph in one pass: every non-metadata node of degree ≤ 1 is removed,
  * whether the expansion added it (e.g. `Bhavna Vaswani` connected only to
  * `Shyamalan`) or it was a term of the input graph. Metadata nodes are
  * always kept.
  *
  * The KB lookup is a Spark semi-join of the resource's triples against
  * the data-node labels, so only the matching triples reach the driver;
  * the union and the cleaning run on the [[Graph]].
  */
object Expansion {

  /** Expand `g` with `kb`, then drop non-metadata nodes of degree ≤ 1. */
  def expand(spark: SparkSession, g: Graph, kb: KnowledgeBase): Graph = {
    import spark.implicits._
    val dataNodes = g.nodeList.collect { case (id, k) if !Kind.isMetadata(k) => id }.toDF("id")

    // Triples touching a data node of the graph, in either direction.
    val t = kb.triples(spark)
    val touching = t.join(dataNodes.withColumnRenamed("id", "subject"), Seq("subject"), "left_semi")
      .union(t.join(dataNodes.withColumnRenamed("id", "object"), Seq("object"), "left_semi")
        .select("subject", "object"))
      .collect().map(r => (r.getString(0), r.getString(1)))

    val kbNodes = touching.flatMap { case (s, o) => Seq(s, o) }
      .filterNot(g.index.contains).map((_, Kind.Kb))
    removeSinks(Graph.of(g.nodeList ++ kbNodes, g.edgeList ++ touching))
  }

  /** Remove degree-≤1 non-metadata nodes (Algorithm 2, cleaning step).
    * One pass, as in the paper; metadata nodes are always kept.
    */
  def removeSinks(g: Graph): Graph = {
    val keep = g.labels.indices.filter(v => Kind.isMetadata(g.kinds(v)) || g.degree(v) > 1)
    Graph.of(keep.map(v => (g.labels(v), g.kinds(v))), g.edgeList)
  }
}
