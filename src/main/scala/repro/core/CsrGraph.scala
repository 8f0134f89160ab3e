package repro.core

/** Compact CSR adjacency of a [[Graph]], broadcast to Spark tasks by every
  * local graph algorithm: BFS in MSP/SSuM compression and random walks.
  * Node `v` (label `labels(v)`, kind `kinds(v)`) has the sorted neighbours
  * `neighbors(offsets(v) until offsets(v + 1))`. Graphs at evaluation
  * scale fit easily; the paper itself ran on an 8 GB laptop.
  */
final class CsrGraph(
    val labels: Array[String],
    val offsets: Array[Int],
    val neighbors: Array[Int],
    val kinds: Array[String]) extends Serializable {

  /** Label → node; built where used, never shipped with a broadcast. */
  @transient lazy val index: Map[String, Int] = labels.zipWithIndex.toMap
  def numNodes: Int = labels.length
  def degree(v: Int): Int = offsets(v + 1) - offsets(v)
  def neighborsOf(v: Int): Array[Int] =
    java.util.Arrays.copyOfRange(neighbors, offsets(v), offsets(v + 1))

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

object CsrGraph {
  /** Collect a Spark graph into CSR form (nodes in sorted label order,
    * neighbours sorted), so the structure depends only on the graph, not on
    * how its DataFrames are partitioned.
    */
  def fromGraph(g: Graph): CsrGraph = {
    val (labels, kinds) = g.nodes.select("id", "kind").collect()
      .map(r => (r.getString(0), r.getString(1))).sortBy(_._1).unzip
    val index  = labels.zipWithIndex.toMap
    val edges = g.edges.select("src", "dst").collect().flatMap { r =>
      for (s <- index.get(r.getString(0)); d <- index.get(r.getString(1))) yield (s, d)
    }
    val deg = Array.fill(labels.length)(0)
    edges.foreach { case (s, d) => deg(s) += 1; deg(d) += 1 }
    val offsets = new Array[Int](labels.length + 1)
    var i = 0
    while (i < labels.length) { offsets(i + 1) = offsets(i) + deg(i); i += 1 }
    val cursor    = offsets.clone()
    val neighbors = new Array[Int](edges.length * 2)
    edges.foreach { case (s, d) =>
      neighbors(cursor(s)) = d; cursor(s) += 1
      neighbors(cursor(d)) = s; cursor(d) += 1
    }
    i = 0
    while (i < labels.length) { java.util.Arrays.sort(neighbors, offsets(i), offsets(i + 1)); i += 1 }
    new CsrGraph(labels, offsets, neighbors, kinds)
  }
}
