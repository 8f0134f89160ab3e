package repro.compress

import org.apache.spark.sql.SparkSession
import repro.core.{Graph, Kind}
import scala.util.Random

/** Metadata-Shortest-Path graph compression (paper Algorithm 3).
  *
  * Samples `L = β · |V|` random (meta1, meta2) node pairs, computes *all*
  * shortest paths of each pair, and keeps exactly the nodes/edges on those
  * paths. A final coverage pass guarantees every metadata node is
  * connected to the output with at least one shortest path (paper §III-B).
  *
  * The pair loop — the O(β·|V|) hot part — is distributed: pairs are
  * grouped by source and processed by Spark tasks against a broadcast CSR
  * [[repro.core.Graph]].
  */
object MSP {

  def compress(spark: SparkSession, g: Graph, beta: Double, seed: Long = 7): Graph = {
    val meta1 = g.kinds.indices.filter(g.kinds(_) == Kind.Meta1).toArray
    val meta2 = g.kinds.indices.filter(g.kinds(_) == Kind.Meta2).toArray
    require(meta1.nonEmpty && meta2.nonEmpty, "MSP needs metadata nodes in both corpora")

    val rnd = new Random(seed)
    val L   = math.max(1L, (beta * g.numNodes).toLong)
    val pairs = (0L until L).map { _ =>
      (meta1(rnd.nextInt(meta1.length)), meta2(rnd.nextInt(meta2.length)))
    }
    val bySource: Seq[(Int, Seq[Int])] =
      pairs.groupBy(_._1).view.mapValues(_.map(_._2).distinct).toSeq

    val bc = spark.sparkContext.broadcast(g)
    val slices = spark.sparkContext
      .parallelize(bySource, math.min(bySource.size, spark.sparkContext.defaultParallelism * 4).max(1))
      .map { case (src, targets) =>
        val graph = bc.value
        val dist  = graph.bfs(src)
        val nodes = scala.collection.mutable.Set.empty[Int]
        val edges = scala.collection.mutable.Set.empty[(Int, Int)]
        targets.foreach { t =>
          val (ns, es) = graph.shortestPathSlice(dist, t)
          nodes ++= ns; edges ++= es
        }
        (nodes.toArray, edges.toArray)
      }
      .collect()

    val keptNodes = scala.collection.mutable.Set.empty[Int]
    val keptEdges = scala.collection.mutable.Set.empty[(Int, Int)]
    slices.foreach { case (ns, es) => keptNodes ++= ns; keptEdges ++= es }

    // Coverage pass: every metadata node keeps ≥ 1 shortest path to the
    // nearest metadata node of the other corpus.
    val meta2Set = meta2.toSet
    val meta1Set = meta1.toSet
    def cover(v: Int, others: Set[Int]): Unit = {
      val dist = g.bfs(v)
      val reachable = others.filter(dist(_) >= 0)
      if (reachable.nonEmpty) {
        val nearest = reachable.minBy(dist)
        val (ns, es) = g.shortestPathSlice(dist, nearest)
        keptNodes ++= ns; keptEdges ++= es
      } else keptNodes += v
    }
    meta1.foreach(v => if (!keptNodes.contains(v)) cover(v, meta2Set))
    meta2.foreach(v => if (!keptNodes.contains(v)) cover(v, meta1Set))
    bc.destroy()

    Graph.of(
      keptNodes.map(v => (g.labels(v), g.kinds(v))),
      keptEdges.map { case (a, b) => (g.labels(a), g.labels(b)) })
  }
}
