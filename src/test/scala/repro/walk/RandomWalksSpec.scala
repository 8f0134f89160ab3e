package repro.walk

import repro.SparkSpec
import repro.core.{Graph, Kind}

class RandomWalksSpec extends SparkSpec {

  private def triangle: Graph =
    Graph.of(Seq("a", "b", "c").map((_, Kind.Term)), Seq(("a", "b"), ("b", "c"), ("a", "c")))

  private def withIsolated: Graph =
    Graph.of(Seq("a", "b", "lone").map((_, Kind.Term)), Seq(("a", "b")))

  /** Degrees 1–4: a–{b, c, d, e}, b–c, c–d. */
  private val unequal = Map(
    "a" -> Seq("b", "c", "d", "e"), "b" -> Seq("a", "c"), "c" -> Seq("a", "b", "d"),
    "d" -> Seq("a", "c"), "e" -> Seq("a"))

  private def graphOf(adj: Map[String, Seq[String]], partitions: Int): Graph = {
    import spark.implicits._
    val ids = (adj.keys ++ adj.values.flatten).toSeq.distinct
    val nodes = ids.map((_, Kind.Term)).toDF("id", "kind").repartition(partitions)
    val edges = adj.toSeq.flatMap { case (u, vs) => vs.map((u, _)) }.toDF("src", "dst")
      .repartition(partitions)
    Graph.of(nodes.as[(String, String)].collect(), edges.as[(String, String)].collect())
  }

  test("walk count is n per node") {
    val w = RandomWalks.walks(spark, triangle, n = 4, l = 5)
    assert(w.count() == 12)
  }
  test("walks have requested length on connected graphs") {
    val w = RandomWalks.walks(spark, triangle, n = 2, l = 6).collect()
    assert(w.forall(_.getSeq[String](0).size == 6))
  }
  test("every node starts its own walks") {
    val w = RandomWalks.walks(spark, triangle, n = 1, l = 3).collect()
      .map(_.getSeq[String](0).head).toSet
    assert(w == Set("a", "b", "c"))
  }
  test("consecutive walk steps follow edges") {
    val adj = Map("a" -> Set("b", "c"), "b" -> Set("a", "c"), "c" -> Set("a", "b"))
    val w = RandomWalks.walks(spark, triangle, n = 3, l = 8).collect()
    w.foreach { r =>
      val s = r.getSeq[String](0)
      s.sliding(2).foreach { p =>
        if (p.size == 2) assert(adj(p.head).contains(p(1)), s"step $p")
      }
    }
  }
  test("isolated nodes yield length-1 walks") {
    val w = RandomWalks.walks(spark, withIsolated, n = 2, l = 5).collect()
      .map(_.getSeq[String](0))
    val lone = w.filter(_.head == "lone")
    assert(lone.size == 2 && lone.forall(_ == Seq("lone")))
  }
  test("walks are deterministic in seed") {
    def sig(seed: Long) = RandomWalks.walks(spark, triangle, 2, 6, seed)
      .collect().map(_.getSeq[String](0).mkString(",")).sorted.mkString(";")
    assert(sig(7) == sig(7))
  }
  test("different seeds give different walks") {
    def sig(seed: Long) = RandomWalks.walks(spark, triangle, 4, 10, seed)
      .collect().map(_.getSeq[String](0).mkString(",")).sorted.mkString(";")
    assert(sig(7) != sig(8))
  }
  test("long walks survive lineage checkpointing (l=30)") {
    val w = RandomWalks.walks(spark, triangle, n = 1, l = 30)
    assert(w.collect().forall(_.getSeq[String](0).size == 30))
  }
  test("steps choose uniformly among neighbours (chi-square)") {
    val steps = RandomWalks.walks(spark, graphOf(unequal, 3), n = 200, l = 20, seed = 5).collect()
      .flatMap(_.getSeq[String](0).sliding(2).collect { case Seq(u, v) => (u, v) })
    // Chi-square critical values at p = 0.001 for 1–3 degrees of freedom.
    val critical = Map(1 -> 10.83, 2 -> 13.82, 3 -> 16.27)
    unequal.foreach { case (u, nbrs) =>
      val from = steps.filter(_._1 == u).map(_._2)
      val observed = nbrs.map(v => from.count(_ == v))
      assert(from.nonEmpty && observed.sum == from.length, s"steps from $u leave its neighbours")
      if (nbrs.size > 1) {
        val expected = from.length.toDouble / nbrs.size
        val chi2 = observed.map(o => (o - expected) * (o - expected) / expected).sum
        assert(chi2 < critical(nbrs.size - 1), s"$u: counts $observed, chi-square $chi2")
      }
    }
  }
  test("walks do not depend on how the graph is partitioned") {
    val rnd = new scala.util.Random(3)
    val adj = (0 until 60).map(_ => (s"n${rnd.nextInt(40)}", s"n${rnd.nextInt(40)}"))
      .filter { case (u, v) => u != v }
      .groupBy(_._1).map { case (u, es) => u -> es.map(_._2) }
    def sentences(partitions: Int) = RandomWalks.walks(spark, graphOf(adj, partitions), 5, 12, seed = 21)
      .collect().map(_.getSeq[String](0).mkString(",")).sorted.toSeq
    val one = sentences(1)
    assert(one.size == 5 * graphOf(adj, 1).numNodes)
    assert(one == sentences(7))
  }
}
