package perfbench

/** Output checks computed apart from the program, in plain Scala over
  * collected data. Each returns the list of violations it found (empty
  * when the output is correct).
  */
object Checks {

  /** One ranked row: `(queryId, candId, sim, rank)` over raw document ids. */
  final case class Ranked(queryId: String, candId: String, sim: Double, rank: Int)

  val Tolerance = 1e-9

  /** Cosine with float products summed in double, the arithmetic a
    * `Seq[Float]` dot product on the JVM performs, so that candidates with
    * identical vectors tie exactly here as they do in the program.
    */
  def cosine(a: Array[Float], b: Array[Float]): Double = {
    var dot = 0.0; var na = 0.0; var nb = 0.0; var i = 0
    while (i < a.length) {
      dot += a(i) * b(i); na += a(i) * a(i); nb += b(i) * b(i); i += 1
    }
    if (na == 0 || nb == 0) 0.0 else dot / math.sqrt(na * nb)
  }

  /** The ranking must equal brute-force cosine top-k over the returned
    * vectors (ties broken by candidate id). Two candidates may swap places
    * only when their similarities differ by less than [[Tolerance]].
    */
  def topK(
      ranking: Seq[Ranked],
      queryIds: Seq[String],
      candIds: Seq[String],
      vectors: Map[String, Array[Float]],
      dim: Int,
      k: Int): Seq[String] = {
    val zero = new Array[Float](dim)
    def vec(id: String) = vectors.getOrElse(id, zero)
    val cands = candIds.map(c => c -> vec(s"m2::$c"))
    val byQuery = ranking.groupBy(_.queryId)
    val errs = Seq.newBuilder[String]
    if (byQuery.keySet != queryIds.toSet)
      errs += s"ranked queries ${byQuery.size} != corpus queries ${queryIds.size}"
    queryIds.foreach { q =>
      val qv = vec(s"m1::$q")
      val sims = cands.map { case (c, cv) => c -> cosine(qv, cv) }.toMap
      val expected = sims.toSeq.sortBy { case (c, s) => (-s, c) }.take(k)
      val got = byQuery.getOrElse(q, Seq.empty).sortBy(_.rank)
      if (got.map(_.rank) != (1 to expected.size))
        errs += s"$q: ranks ${got.map(_.rank).mkString(",")} are not 1..${expected.size}"
      else got.zip(expected).foreach { case (r, (e, es)) =>
        sims.get(r.candId) match {
          case None => errs += s"$q: unknown candidate ${r.candId}"
          case Some(s) =>
            if (math.abs(s - r.sim) >= Tolerance)
              errs += s"$q: sim of ${r.candId} is ${r.sim}, recomputed $s"
            if (r.candId != e && math.abs(s - es) >= Tolerance)
              errs += s"$q: rank ${r.rank} is ${r.candId} ($s), expected $e ($es)"
        }
      }
    }
    errs.result()
  }

  /** MRR, MAP@1/5/20 and HP@1/5/20, in `RankMetrics.Row` field order.
    * Queries are those of the truth; a query with no relevant candidate
    * ranked scores 0; AP@k divides by min(#relevant, k).
    */
  def measures(ranking: Seq[Ranked], truth: Seq[(String, String)]): Seq[Double] = {
    val relevant = truth.groupBy(_._1).map { case (q, ps) => q -> ps.map(_._2).toSet }
    val byQuery = ranking.groupBy(_.queryId)
    def hitRanks(q: String): Seq[Int] =
      byQuery.getOrElse(q, Seq.empty).filter(r => relevant(q)(r.candId)).map(_.rank).sorted
    def mean(f: String => Double): Double = relevant.keys.toSeq.map(f).sum / relevant.size
    val rr = mean(q => hitRanks(q).headOption.fold(0.0)(1.0 / _))
    def ap(k: Int) = mean { q =>
      val hits = hitRanks(q).filter(_ <= k)
      hits.zipWithIndex.map { case (rank, i) => (i + 1).toDouble / rank }.sum /
        math.min(relevant(q).size, k)
    }
    def hp(k: Int) = mean(q => if (hitRanks(q).exists(_ <= k)) 1.0 else 0.0)
    Seq(rr, ap(1), ap(5), ap(20), hp(1), hp(5), hp(20))
  }

  /** `RankMetrics.Row` values equal the recomputed ones; MAP@k is left
    * out when `withMap` is false.
    */
  def metricsAgree(program: Seq[Double], recomputed: Seq[Double], withMap: Boolean = true): Seq[String] = {
    val names = Seq("MRR", "MAP@1", "MAP@5", "MAP@20", "HP@1", "HP@5", "HP@20")
    names.zip(program.zip(recomputed)).collect {
      case (n, (p, r)) if (withMap || !n.startsWith("MAP")) && !(math.abs(p - r) < Tolerance) =>
        s"$n: RankMetrics.row $p, recomputed $r"
    }
  }

  /** Expected MRR of a uniformly random ranking cut at `k`, for a query
    * with `m` relevant among `n` candidates: Σ_{r≤k} P(first hit at r) / r.
    */
  def randomMrr(n: Int, m: Int, k: Int): Double = {
    var noHitYet = 1.0; var sum = 0.0; var r = 1
    while (r <= math.min(k, n - m + 1)) {
      val hitHere = noHitYet * m / (n - r + 1)
      sum += hitHere / r
      noHitYet -= hitHere
      r += 1
    }
    sum
  }

  def mrrAboveRandom(mrr: Double, truth: Seq[(String, String)], nCands: Int, k: Int): Seq[String] = {
    val perQuery = truth.groupBy(_._1).values.map(ps => randomMrr(nCands, ps.size, k))
    val random = perQuery.sum / perQuery.size
    if (mrr >= 5 * random) Nil else Seq(s"MRR $mrr is not 5x the random-ranking MRR $random")
  }

  // ------------------------------------------------------------ graph checks

  final case class LocalGraph(nodes: Map[String, String], edges: Set[(String, String)])

  /** Edges are canonical (`src < dst`, hence no self-loops), distinct, and
    * both endpoints are nodes.
    */
  def wellFormed(name: String, g: LocalGraph, edgeRows: Int): Seq[String] = {
    val errs = Seq.newBuilder[String]
    if (edgeRows != g.edges.size) errs += s"$name: ${edgeRows - g.edges.size} duplicate edges"
    g.edges.foreach { case (s, d) =>
      if (!(s < d)) errs += s"$name: edge ($s, $d) is not canonical"
      if (!g.nodes.contains(s) || !g.nodes.contains(d)) errs += s"$name: edge ($s, $d) has an endpoint that is not a node"
    }
    errs.result().take(20)
  }

  /** Exactly one metadata node per document of each corpus. */
  def oneMetaPerDoc(name: String, g: LocalGraph, queryIds: Seq[String], candIds: Seq[String]): Seq[String] = {
    def of(kind: String) = g.nodes.collect { case (id, `kind`) => id }.toSet
    val errs = Seq.newBuilder[String]
    if (of("meta1") != queryIds.map("m1::" + _).toSet) errs += s"$name: meta1 nodes differ from query documents"
    if (of("meta2") != candIds.map("m2::" + _).toSet) errs += s"$name: meta2 nodes differ from candidate documents"
    errs.result()
  }

  /** MSP output is a subgraph of its input and keeps every document node. */
  def subgraph(in: LocalGraph, out: LocalGraph): Seq[String] = {
    val errs = Seq.newBuilder[String]
    val foreignNodes = out.nodes.count { case (id, k) => !in.nodes.get(id).contains(k) }
    if (foreignNodes > 0) errs += s"compress: $foreignNodes nodes not in the input graph"
    val foreignEdges = (out.edges -- in.edges).size
    if (foreignEdges > 0) errs += s"compress: $foreignEdges edges not in the input graph"
    val lostMeta = in.nodes.count { case (id, k) => (k == "meta1" || k == "meta2") && !out.nodes.contains(id) }
    if (lostMeta > 0) errs += s"compress: $lostMeta document nodes dropped"
    errs.result()
  }

  /** `numWalks` walks start at every node, and consecutive tokens of a
    * walk are joined by an edge of the walked graph.
    */
  def walks(g: LocalGraph, sentences: Seq[Seq[String]], numWalks: Int, walkLength: Int): Seq[String] = {
    val errs = Seq.newBuilder[String]
    val starts = sentences.flatMap(_.headOption).groupBy(identity).view.mapValues(_.size).toMap
    if (sentences.exists(_.isEmpty)) errs += "walk: empty sentence"
    if (starts.keySet != g.nodes.keySet || starts.values.exists(_ != numWalks))
      errs += s"walk: starts do not cover every node $numWalks times"
    if (sentences.exists(_.size > walkLength)) errs += s"walk: sentence longer than $walkLength"
    val badSteps = sentences.iterator.flatMap(_.sliding(2)).count {
      case Seq(a, b) => !g.edges.contains(if (a < b) (a, b) else (b, a))
      case _         => false
    }
    if (badSteps > 0) errs += s"walk: $badSteps steps do not follow a graph edge"
    errs.result()
  }
}
