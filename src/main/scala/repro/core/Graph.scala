package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** Node kinds in the heterogeneous graph (paper §II).
  *
  * Data nodes carry terms; metadata nodes represent documents (tuples,
  * texts, taxonomy concepts) and table attributes; `kb` marks nodes added
  * by expansion from an external resource (they behave as data nodes).
  */
object Kind {
  val Term  = "term"
  val Meta1 = "meta1" // document of the first corpus
  val Meta2 = "meta2" // document of the second corpus
  val Attr  = "attr"  // table attribute
  val Kb    = "kb"    // node introduced by KB expansion

  def isMetadata(kind: String): Boolean = kind == Meta1 || kind == Meta2 || kind == Attr
}

/** Undirected graph as a pair of DataFrames.
  *
  * `nodes`: `(id: String, kind: String)` — ids of metadata nodes are
  * prefixed (`m1::`, `m2::`, `attr::`) so they never collide with terms.
  * `edges`: `(src: String, dst: String)` canonicalized with `src < dst`,
  * distinct; the graph is undirected so adjacency is the symmetrized set.
  */
final case class Graph(nodes: DataFrame, edges: DataFrame) {

  /** Both directions of every edge: `(src, dst)`. */
  def adjacency: DataFrame =
    edges.union(edges.select(col("dst").as("src"), col("src").as("dst")))

  /** `(id, degree)` for every node appearing in an edge. */
  def degrees: DataFrame =
    adjacency.groupBy(col("src").as("id")).agg(count("*").as("degree"))

  def numNodes: Long = nodes.count()
  def numEdges: Long = edges.count()

  /** Restrict edges to pairs whose endpoints are both in `nodes`;
    * useful after node filtering.
    */
  def consistent: Graph = {
    val ids = nodes.select(col("id"))
    val e = edges
      .join(ids.withColumnRenamed("id", "src"), "src")
      .join(ids.withColumnRenamed("id", "dst"), "dst")
      .select("src", "dst")
    Graph(nodes, e)
  }

  def persist(): Graph = Graph(nodes.persist(), edges.persist())
  def unpersist(): Unit = { nodes.unpersist(); edges.unpersist() }

  def metadataNodes: DataFrame =
    nodes.where(col("kind").isin(Kind.Meta1, Kind.Meta2, Kind.Attr))
}

object Graph {
  /** Canonicalize an edge DataFrame: undirected, no self-loops, distinct. */
  def canonEdges(df: DataFrame): DataFrame =
    df.select(
        least(col("src"), col("dst")).as("src"),
        greatest(col("src"), col("dst")).as("dst"))
      .where(col("src") =!= col("dst"))
      .distinct()

  def metaId1(docId: String): String = s"m1::$docId"
  def metaId2(docId: String): String = s"m2::$docId"
  def attrId(a: String): String      = s"attr::$a"

  def empty(spark: SparkSession): Graph = {
    import spark.implicits._
    Graph(
      Seq.empty[(String, String)].toDF("id", "kind"),
      Seq.empty[(String, String)].toDF("src", "dst"))
  }
}
