package repro.compress

import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core.{Graph, Kind}

class CompressionSpec extends SparkSpec {

  /** Two meta1 and two meta2 nodes bridged by shared terms, plus a long
    * tail of hub-and-spoke noise terms that compression should drop.
    */
  private def fixture: Graph = {
    val metas = Seq(("m1::p1", Kind.Meta1), ("m1::p2", Kind.Meta1),
      ("m2::t1", Kind.Meta2), ("m2::t2", Kind.Meta2))
    val bridgeTerms = Seq("shared1", "shared2").map((_, Kind.Term))
    val noise = (0 until 30).map(i => (s"noise$i", Kind.Term))
    val nodes = metas ++ bridgeTerms ++ noise
    val bridgeEdges = Seq(
      ("m1::p1", "shared1"), ("m2::t1", "shared1"),
      ("m1::p2", "shared2"), ("m2::t2", "shared2"))
    // noise chain hanging off p1 that reaches no meta2 node
    val noiseEdges = (0 until 29).map(i => (s"noise$i", s"noise${i + 1}")) :+
      (("m1::p1", "noise0"))
    Graph.of(nodes, bridgeEdges ++ noiseEdges)
  }

  test("MSP keeps all metadata nodes") {
    val cg = MSP.compress(spark, fixture, beta = 0.3, seed = 1)
    val metas = cg.nodes.where(col("kind").isin(Kind.Meta1, Kind.Meta2)).count()
    assert(metas == 4)
  }
  test("MSP keeps the bridge terms") {
    val cg = MSP.compress(spark, fixture, beta = 0.5, seed = 1)
    val ids = cg.nodes.collect().map(_.getString(0)).toSet
    assert(ids.contains("shared1") && ids.contains("shared2"))
  }
  test("MSP drops off-path noise") {
    val cg = MSP.compress(spark, fixture, beta = 0.5, seed = 1)
    val ids = cg.nodes.collect().map(_.getString(0)).toSet
    assert(!ids.exists(_.startsWith("noise")))
  }
  test("MSP output is smaller than input on noisy graphs") {
    val cg = MSP.compress(spark, fixture, beta = 0.5, seed = 1)
    assert(cg.numNodes < fixture.numNodes)
    assert(cg.numEdges < fixture.numEdges)
  }
  test("MSP coverage: unsampled metadata still connected (β→0)") {
    val cg = MSP.compress(spark, fixture, beta = 0.01, seed = 2)
    // every meta1 reaches some meta2
    Seq("m1::p1", "m1::p2").foreach { m =>
      val dist = cg.bfs(cg.index(m))
      assert(Seq("m2::t1", "m2::t2").exists(t => cg.index.get(t).exists(dist(_) >= 0)), m)
    }
  }
  test("MSP edges all existed in the input") {
    val cg = MSP.compress(spark, fixture, beta = 0.5, seed = 3)
    val orig = fixture.edges.collect().map(r => (r.getString(0), r.getString(1))).toSet
    val now = cg.edges.collect().map(r => (r.getString(0), r.getString(1))).toSet
    assert(now.subsetOf(orig))
  }
  test("MSP deterministic in seed") {
    val a = MSP.compress(spark, fixture, beta = 0.25, seed = 5)
    val b = MSP.compress(spark, fixture, beta = 0.25, seed = 5)
    assert(a.numNodes == b.numNodes && a.numEdges == b.numEdges)
  }

  test("SSuM keeps metadata nodes") {
    val cg = SSuM.compress(spark, fixture, keepFraction = 0.3)
    assert(cg.nodes.where(col("kind").isin(Kind.Meta1, Kind.Meta2)).count() == 4)
  }
  test("SSuM respects the node budget") {
    val cg = SSuM.compress(spark, fixture, keepFraction = 0.3)
    assert(cg.numNodes <= (0.3 * fixture.numNodes.toDouble).toInt + 4) // + protected metas
  }
  test("SSuM merges identical-neighborhood data nodes") {
    val nodes = Seq(("m1::a", Kind.Meta1), ("m2::b", Kind.Meta2)) ++
      Seq(("t1", Kind.Term), ("t2", Kind.Term))
    // t1 and t2 have identical neighborhoods {m1::a, m2::b}
    val edges = Seq(("m1::a", "t1"), ("m2::b", "t1"), ("m1::a", "t2"), ("m2::b", "t2"))
    val g = Graph.of(nodes, edges)
    val cg = SSuM.compress(spark, g, keepFraction = 1.0)
    val terms = cg.nodes.where(col("kind") === Kind.Term).collect().map(_.getString(0))
    assert(terms.length == 1 && terms.head == "t1")
  }
  test("SSuM deterministic in seed") {
    val a = SSuM.compress(spark, fixture, 0.4, seed = 9)
    val b = SSuM.compress(spark, fixture, 0.4, seed = 9)
    assert(a.numNodes == b.numNodes && a.numEdges == b.numEdges)
  }
  test("SSuM sparsifies edges below the input count") {
    val cg = SSuM.compress(spark, fixture, keepFraction = 0.3)
    assert(cg.numEdges <= fixture.numEdges)
  }
}
