package repro.compress

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{Graph, Kind}

/** The CSR accessors of [[repro.core.Graph]]; the suite keeps the name of
  * the class it was written for, `LocalGraph`, so that its test names stay
  * stable.
  */
class LocalGraphSpec extends AnyFunSuite {

  /** Path graph a-b-c-d plus a parallel branch a-x-d (two shortest paths
    * a→d of length 3... actually a-b-c-d is 3 hops, a-x-d is 2 hops).
    */
  private def diamond: Graph = Graph.of(
    Seq("a", "b", "c", "d", "x").map((_, Kind.Term)),
    Seq(("a", "b"), ("b", "c"), ("c", "d"), ("a", "x"), ("x", "d")))

  test("Graph.of node count and determinism") {
    val lg = diamond
    assert(lg.numNodes == 5)
    assert(lg.labels.sorted.sameElements(lg.labels)) // sorted order
  }
  test("degrees match edge incidence") {
    val lg = diamond
    assert(lg.degree(lg.index("a")) == 2)
    assert(lg.degree(lg.index("d")) == 2)
    assert(lg.degree(lg.index("b")) == 2)
  }
  test("neighbors are symmetric") {
    val lg = diamond
    val a = lg.index("a"); val b = lg.index("b")
    assert(lg.neighborsOf(a).contains(b) && lg.neighborsOf(b).contains(a))
  }
  test("bfs distances on diamond") {
    val lg = diamond
    val dist = lg.bfs(lg.index("a"))
    assert(dist(lg.index("a")) == 0)
    assert(dist(lg.index("b")) == 1)
    assert(dist(lg.index("x")) == 1)
    assert(dist(lg.index("d")) == 2) // via x
    assert(dist(lg.index("c")) == 2)
  }
  test("bfs unreachable is -1") {
    val lg = Graph.of(Seq("a", "b", "z").map((_, Kind.Term)), Seq(("a", "b")))
    assert(lg.bfs(lg.index("a"))(lg.index("z")) == -1)
  }
  test("shortestPathSlice keeps only the short branch") {
    val lg = diamond
    val dist = lg.bfs(lg.index("a"))
    val (ns, es) = lg.shortestPathSlice(dist, lg.index("d"))
    val names = ns.map(lg.labels)
    assert(names == Set("a", "x", "d")) // the 2-hop path only
    assert(es.size == 2)
  }
  test("shortestPathSlice returns all tied shortest paths") {
    // a-b-d and a-c-d, both length 2
    val lg = Graph.of(
      Seq("a", "b", "c", "d").map((_, Kind.Term)),
      Seq(("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")))
    val (ns, es) = lg.shortestPathSlice(lg.bfs(lg.index("a")), lg.index("d"))
    assert(ns.map(lg.labels) == Set("a", "b", "c", "d"))
    assert(es.size == 4)
  }
  test("shortestPathSlice of unreachable target is empty") {
    val lg = Graph.of(Seq("a", "b", "z").map((_, Kind.Term)), Seq(("a", "b")))
    val (ns, es) = lg.shortestPathSlice(lg.bfs(lg.index("a")), lg.index("z"))
    assert(ns.isEmpty && es.isEmpty)
  }
  test("shortestPathSlice to self is just the node") {
    val lg = diamond
    val (ns, es) = lg.shortestPathSlice(lg.bfs(lg.index("a")), lg.index("a"))
    assert(ns.map(lg.labels) == Set("a") && es.isEmpty)
  }
}
