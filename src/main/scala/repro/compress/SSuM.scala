package repro.compress

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions._
import repro.core.{CsrGraph, Graph, Kind}
import scala.util.Random

/** Simplified reimplementation of the SSumm sparse-summarization baseline
  * (Lee et al., KDD 2020) used by the paper as compression comparison.
  *
  * The original groups nodes into supernodes minimizing a reconstruction
  * cost and sparsifies superedges. We keep its two mechanisms in a form
  * tailored to our node-typed graph:
  *   1. **node merging** — data nodes with identical neighborhoods
  *      collapse into one supernode, then low-degree data nodes are
  *      dropped until the node budget `(1-ratio)·|V|` is met;
  *   2. **edge sparsification** — uniform edge sampling down to the same
  *      fraction, always keeping ≥1 edge per metadata node.
  * Metadata nodes are never merged or dropped (the matching task needs
  * them), mirroring how the paper applies SSuM to its graphs.
  *
  * The published behavior is preserved: large size reductions with a
  * bigger matching-quality loss than MSP.
  */
object SSuM {

  /** `ratio` is the compression ratio: output targets `(1-ratio)` of the
    * input size (the paper's SSuM(0.1) row = compression ratio 0.9).
    */
  def compress(spark: SparkSession, g: Graph, keepFraction: Double, seed: Long = 11): Graph = {
    import spark.implicits._
    val lg     = CsrGraph.fromGraph(g)
    val isMeta = lg.kinds.map(Kind.isMetadata)

    // 1) Merge data nodes with identical neighbor sets into supernodes.
    val signature = new scala.collection.mutable.HashMap[String, scala.collection.mutable.ArrayBuffer[Int]]()
    (0 until lg.numNodes).foreach { v =>
      if (!isMeta(v)) {
        val sig = lg.neighborsOf(v).sorted.mkString(",")
        signature.getOrElseUpdate(sig, scala.collection.mutable.ArrayBuffer.empty) += v
      }
    }
    // Representative = smallest label in the group.
    val repOf = Array.tabulate(lg.numNodes)(identity)
    signature.values.foreach { group =>
      if (group.size > 1) {
        val rep = group.minBy(lg.labels)
        group.foreach(v => repOf(v) = rep)
      }
    }

    // Rebuild edge set over representatives.
    var mergedEdges = scala.collection.mutable.Set.empty[(Int, Int)]
    var v = 0
    while (v < lg.numNodes) {
      val rv = repOf(v)
      lg.neighborsOf(v).foreach { u =>
        val ru = repOf(u)
        if (rv != ru) mergedEdges += ((math.min(rv, ru), math.max(rv, ru)))
      }
      v += 1
    }
    var keptNodes = repOf.distinct.toSet

    // 2) Drop lowest-degree data nodes until the node budget is met. The
    //    budget applies to *data* nodes — metadata is never summarized
    //    away (the matching task needs every metadata node).
    val nMeta = isMeta.count(identity)
    val nData = lg.numNodes - nMeta
    val budget = nMeta + math.max(1, (keepFraction * nData).toInt)
    if (keptNodes.size > budget) {
      val deg = scala.collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
      mergedEdges.foreach { case (a, b) => deg(a) += 1; deg(b) += 1 }
      val droppable = keptNodes.filter(n => !isMeta(n)).toSeq.sortBy(n => (deg(n), lg.labels(n)))
      val toDrop = droppable.take(keptNodes.size - budget).toSet
      keptNodes = keptNodes -- toDrop
      mergedEdges = mergedEdges.filter { case (a, b) => keptNodes(a) && keptNodes(b) }
    }

    // 3) Sparsify edges uniformly down to the same fraction. Metadata
    //    coverage edges (one per metadata node) come on top of the
    //    budget, so aggressive ratios cannot disconnect the match targets.
    val edgeBudget = math.max(1, (keepFraction * (lg.neighbors.length / 2)).toInt)
    if (mergedEdges.size > edgeBudget) {
      val rnd      = new Random(seed)
      val shuffled = rnd.shuffle(mergedEdges.toList)
      val kept     = scala.collection.mutable.Set.empty[(Int, Int)]
      val covered  = scala.collection.mutable.Set.empty[Int]
      // First: one covering edge per metadata node.
      shuffled.foreach { case e @ (a, b) =>
        val coversNewMeta =
          (isMeta(a) && !covered(a)) || (isMeta(b) && !covered(b))
        if (coversNewMeta) { kept += e; if (isMeta(a)) covered += a; if (isMeta(b)) covered += b }
      }
      val total = kept.size + edgeBudget
      shuffled.iterator.takeWhile(_ => kept.size < total).foreach(kept += _)
      mergedEdges = kept
    }
    val finalNodes = keptNodes.filter(n =>
      isMeta(n) || mergedEdges.exists { case (a, b) => a == n || b == n })

    val nodesDf = finalNodes.toSeq
      .map(i => (lg.labels(i), lg.kinds(i))).toDF("id", "kind")
    val edgesDf = mergedEdges.toSeq
      .map { case (a, b) =>
        val (la, lb) = (lg.labels(a), lg.labels(b))
        (if (la < lb) la else lb, if (la < lb) lb else la)
      }
      .toDF("src", "dst")
    Graph(nodesDf, edgesDf.distinct()).consistent
  }
}
