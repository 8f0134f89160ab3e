package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

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

/** Undirected graph in compact CSR form, held in driver memory, read
  * there by the random walks and broadcast to Spark tasks by MSP's BFS.
  * Graphs at evaluation scale fit easily; the paper itself ran on an 8 GB
  * laptop.
  *
  * Node `v` (label `labels(v)`, kind `kinds(v)`) has the sorted neighbours
  * `neighbors(offsets(v) until offsets(v + 1))`. Labels are sorted, so the
  * structure depends only on the node and edge sets. Ids of metadata nodes
  * are prefixed (`m1::`, `m2::`, `attr::`) so they never collide with
  * terms. Build one with [[Graph.of]].
  */
final class Graph private (
    val labels: Array[String],
    val kinds: Array[String],
    val offsets: Array[Int],
    val neighbors: Array[Int]) extends Serializable {

  /** Label → node; built where used, never shipped with a broadcast. */
  @transient lazy val index: Map[String, Int] = labels.zipWithIndex.toMap
  def numNodes: Int = labels.length
  def numEdges: Int = neighbors.length / 2
  def degree(v: Int): Int = offsets(v + 1) - offsets(v)
  def neighborsOf(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(neighbors, offsets(v), offsets(v + 1))

  /** `(id, kind)` of every node, in label order. */
  def nodeList: Seq[(String, String)] = labels.indices.map(v => (labels(v), kinds(v)))

  /** Every edge once, as `(src, dst)` with `src < dst`. */
  def edgeList: Seq[(String, String)] = labels.indices.flatMap { v =>
    (offsets(v) until offsets(v + 1)).map(neighbors).filter(_ > v).map(u => (labels(v), labels(u)))
  }

  /** [[nodeList]] as a DataFrame `(id, kind)` on the active Spark session. */
  def nodes: DataFrame = {
    val spark = SparkSession.active
    import spark.implicits._
    nodeList.toDF("id", "kind")
  }

  /** [[edgeList]] as a DataFrame `(src, dst)` on the active Spark session. */
  def edges: DataFrame = {
    val spark = SparkSession.active
    import spark.implicits._
    edgeList.toDF("src", "dst")
  }

  /** The graph itself: it lives in driver memory. Kept for callers that
    * persist a graph before counting its views.
    */
  def persist(): Graph = this

  /** BFS distances from `src`; -1 for unreachable nodes. */
  def bfs(src: Int): Array[Int] = {
    val dist = Array.fill(numNodes)(-1)
    dist(src) = 0
    val q = new java.util.ArrayDeque[Int]()
    q.add(src)
    while (!q.isEmpty) {
      val u = q.poll()
      var i = offsets(u)
      while (i < offsets(u + 1)) {
        val v = neighbors(i)
        if (dist(v) == -1) { dist(v) = dist(u) + 1; q.add(v) }
        i += 1
      }
    }
    dist
  }

  /** Union of all shortest paths from `src` (whose BFS `dist` is given)
    * to `target`: returns (nodes, edges) of the shortest-path DAG slice,
    * via backward traversal (a node u at dist d-1 adjacent to a kept node
    * v at dist d lies on some shortest path to v).
    * Empty when `target` is unreachable.
    */
  def shortestPathSlice(dist: Array[Int], target: Int): (Set[Int], Set[(Int, Int)]) = {
    if (dist(target) < 0) return (Set.empty, Set.empty)
    val nodesKept = scala.collection.mutable.Set(target)
    val edgesKept = scala.collection.mutable.Set.empty[(Int, Int)]
    var frontier  = List(target)
    while (frontier.nonEmpty) {
      val next = scala.collection.mutable.ListBuffer.empty[Int]
      for (v <- frontier) {
        val dv = dist(v)
        var i = offsets(v)
        while (i < offsets(v + 1)) {
          val u = neighbors(i)
          if (dist(u) == dv - 1) {
            edgesKept += ((math.min(u, v), math.max(u, v)))
            if (!nodesKept.contains(u)) { nodesKept += u; next += u }
          }
          i += 1
        }
      }
      frontier = next.toList
    }
    (nodesKept.toSet, edgesKept.toSet)
  }
}

object Graph {

  /** The graph over `nodes` `(id, kind)` and undirected `edges`. Repeated
    * nodes and edges collapse, and self-loops and edges with an endpoint
    * that is not a node are dropped. An id given with two kinds is an
    * error.
    */
  def of(nodes: Iterable[(String, String)], edges: Iterable[(String, String)]): Graph = {
    val (labels, kinds) = nodes.toArray.distinct.sortBy(_._1).unzip
    var i = 1
    while (i < labels.length) {
      require(labels(i - 1) != labels(i), s"node ${labels(i)} has two kinds: ${kinds(i - 1)}, ${kinds(i)}")
      i += 1
    }
    def node(id: String): Int = java.util.Arrays.binarySearch(labels.asInstanceOf[Array[AnyRef]], id)
    // Each edge once as (low << 32 | high), sorted: filling the lists in
    // that order leaves every neighbour list sorted.
    val pairs = edges.iterator.flatMap { case (a, b) =>
      val (s, d) = (node(a), node(b))
      if (s < 0 || d < 0 || s == d) None
      else Some(math.min(s, d).toLong << 32 | math.max(s, d))
    }.toArray.distinct.sorted
    val offsets = new Array[Int](labels.length + 1)
    pairs.foreach { p => offsets((p >>> 32).toInt + 1) += 1; offsets(p.toInt + 1) += 1 }
    i = 0
    while (i < labels.length) { offsets(i + 1) += offsets(i); i += 1 }
    val cursor    = offsets.clone()
    val neighbors = new Array[Int](pairs.length * 2)
    pairs.foreach { p =>
      val (s, d) = ((p >>> 32).toInt, p.toInt)
      neighbors(cursor(s)) = d; cursor(s) += 1
      neighbors(cursor(d)) = s; cursor(d) += 1
    }
    new Graph(labels, kinds, offsets, neighbors)
  }

  def metaId1(docId: String): String = s"m1::$docId"
  def metaId2(docId: String): String = s"m2::$docId"
  def attrId(a: String): String      = s"attr::$a"
}
