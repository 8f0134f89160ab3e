package repro.compress

import org.apache.spark.sql.SparkSession
import repro.core.{Graph, Kind}
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
    val isMeta = g.kinds.map(Kind.isMetadata)

    // 1) Merge data nodes with identical neighbor sets into supernodes.
    val signature = new scala.collection.mutable.HashMap[String, scala.collection.mutable.ArrayBuffer[Int]]()
    (0 until g.numNodes).foreach { v =>
      if (!isMeta(v)) {
        val sig = g.neighborsOf(v).sorted.mkString(",")
        signature.getOrElseUpdate(sig, scala.collection.mutable.ArrayBuffer.empty) += v
      }
    }
    // Representative = smallest label in the group.
    val repOf = Array.tabulate(g.numNodes)(identity)
    signature.values.foreach { group =>
      if (group.size > 1) {
        val rep = group.minBy(g.labels)
        group.foreach(v => repOf(v) = rep)
      }
    }

    // Rebuild edge set over representatives.
    var mergedEdges = scala.collection.mutable.Set.empty[(Int, Int)]
    var v = 0
    while (v < g.numNodes) {
      val rv = repOf(v)
      g.neighborsOf(v).foreach { u =>
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
    val nData = g.numNodes - nMeta
    val budget = nMeta + math.max(1, (keepFraction * nData).toInt)
    if (keptNodes.size > budget) {
      val deg = scala.collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
      mergedEdges.foreach { case (a, b) => deg(a) += 1; deg(b) += 1 }
      val droppable = keptNodes.filter(n => !isMeta(n)).toSeq.sortBy(n => (deg(n), g.labels(n)))
      val toDrop = droppable.take(keptNodes.size - budget).toSet
      keptNodes = keptNodes -- toDrop
      mergedEdges = mergedEdges.filter { case (a, b) => keptNodes(a) && keptNodes(b) }
    }

    // 3) Sparsify edges uniformly down to the same fraction. Metadata
    //    coverage edges (one per metadata node) come on top of the
    //    budget, so aggressive ratios cannot disconnect the match targets.
    val edgeBudget = math.max(1, (keepFraction * (g.neighbors.length / 2)).toInt)
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
    // Data nodes left without an edge are dropped.
    val touched = mergedEdges.iterator.flatMap { case (a, b) => Iterator(a, b) }.toSet
    val finalNodes = keptNodes.filter(n => isMeta(n) || touched(n))

    Graph.of(
      finalNodes.map(v => (g.labels(v), g.kinds(v))),
      mergedEdges.map { case (a, b) => (g.labels(a), g.labels(b)) })
  }
}
