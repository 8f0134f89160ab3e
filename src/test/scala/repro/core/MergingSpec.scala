package repro.core

import org.scalatest.funsuite.AnyFunSuite

class MergingSpec extends AnyFunSuite {

  // ---- FD rule -----------------------------------------------------------

  test("fdBinWidth on uniform 1..100") {
    val w = Merging.fdBinWidth((1 to 100).map(_.toDouble))
    // IQR ≈ 49.5, n^(1/3) ≈ 4.64 → width ≈ 21.3
    assert(w > 15 && w < 30)
  }
  test("fdBinWidth degenerate: constant values") {
    assert(Merging.fdBinWidth(Seq(5.0, 5.0, 5.0)) == 0.0)
  }
  test("fdBinWidth degenerate: single value") {
    assert(Merging.fdBinWidth(Seq(5.0)) == 0.0)
  }
  test("fdBinWidth is scale-equivariant") {
    val a = (1 to 50).map(_.toDouble)
    val w1 = Merging.fdBinWidth(a)
    val w2 = Merging.fdBinWidth(a.map(_ * 10))
    assert(math.abs(w2 - 10 * w1) < 1e-9)
  }

  // ---- numeric bucketing -------------------------------------------------

  test("numericBucketMap merges close numbers into the same bucket") {
    val terms = (100 to 110).map(_.toString) ++ Seq("5000", "movie")
    val m = Merging.numericBucketMap(terms).toMap
    assert(m("100") == m("101"))
    assert(m("100") != m("5000"))
    assert(!m.contains("movie"))
  }
  test("numericBucketMap empty for non-numeric corpora") {
    val terms = Seq("a", "b")
    assert(Merging.numericBucketMap(terms).size == 0)
  }
  test("numericBucketMap bucket labels are num<i>") {
    val terms = Seq("1", "2", "3", "50", "100")
    val canons = Merging.numericBucketMap(terms).map(_._2)
    assert(canons.forall(_.matches("num<\\d+>")))
  }

  // ---- dictionary merging ------------------------------------------------

  test("dictionaryMap normalizes entries through the text pipeline") {
    val m = Merging.dictionaryMap(Seq(("B. Willis", "Bruce Willis")))
    assert(m.toSeq == Seq(("b_willi", "bruce_willi")))
  }
  test("dictionaryMap drops identity pairs") {
    assert(Merging.dictionaryMap(Seq(("plan", "plans"))).size == 0) // both stem to plan
  }
  test("dictionaryMap acronym expansion") {
    val m = Merging.dictionaryMap(Seq(("pdca", "plan do check act")))
    assert(m.head._1 == "pdca" && m.head._2.startsWith("plan_"))
  }
  test("dictionaryMap dedups") {
    assert(Merging.dictionaryMap(Seq(("a1x", "b1x"), ("a1x", "b1x"))).size == 1)
  }

  // ---- gamma merge -------------------------------------------------------

  private def vecs: Map[String, Array[Float]] = Map(
    "alpha" -> Array(1f, 0f, 0f),
    "alpha2" -> Array(0.99f, 0.1f, 0f),
    "beta" -> Array(0f, 1f, 0f),
    "gamma" -> Array(0f, 0f, 1f))

  test("gammaMergeMap merges terms above threshold") {
    val terms = Seq("alpha", "alpha2", "beta", "gamma")
    val m = Merging.gammaMergeMap(terms, vecs, 0.9).toMap
    assert(m == Map("alpha2" -> "alpha"))
  }
  test("gammaMergeMap leaves dissimilar terms alone") {
    val terms = Seq("beta", "gamma")
    assert(Merging.gammaMergeMap(terms, vecs, 0.5).size == 0)
  }
  test("gammaMergeMap ignores out-of-vocabulary terms") {
    val terms = Seq("unknown1", "unknown2")
    assert(Merging.gammaMergeMap(terms, vecs, 0.1).size == 0)
  }
  test("gammaMergeMap transitive closure picks smallest representative") {
    val chain = Map(
      "a" -> Array(1f, 0f), "b" -> Array(0.98f, 0.2f), "c" -> Array(0.93f, 0.37f))
    val terms = Seq("a", "b", "c")
    val m = Merging.gammaMergeMap(terms, chain, 0.97).toMap
    // a~b and b~c merge; a~c is below γ but joins via union-find
    assert(m("b") == "a" && m("c") == "a")

    // Seeded random vectors, some terms out of vocabulary: the map equals
    // the connected components of all pairs at or above γ, each member
    // mapped to its component's smallest term.
    val rnd = new scala.util.Random(5)
    val random = (0 until 60).map(i => f"t$i%02d" -> Array.fill(3)(rnd.nextGaussian().toFloat)).toMap
    val all = random.keys.toSeq.sorted ++ Seq("oov1", "oov2")
    val gamma = 0.97
    val got = Merging.gammaMergeMap(all, random, gamma).toSet
    val inVocab = all.filter(random.contains)
    val linked = for (x <- inVocab; y <- inVocab if x != y &&
      repro.embed.Embeddings.cosine(random(x), random(y)) >= gamma) yield (x, y)
    def component(t: String): Set[String] = {
      var seen = Set(t); var frontier = Set(t)
      while (frontier.nonEmpty) {
        frontier = linked.collect { case (x, y) if frontier(x) && !seen(y) => y }.toSet
        seen ++= frontier
      }
      seen
    }
    val expected = inVocab.map(t => (t, component(t).min)).filter { case (v, c) => v != c }.toSet
    assert(expected.nonEmpty && expected.size < inVocab.size - 1)
    assert(got == expected)
  }

  // ---- compose -----------------------------------------------------------

  test("compose resolves chained mappings") {
    val m1 = Seq(("x", "y"))
    val m2 = Seq(("y", "z"))
    val m = Merging.compose(m1, m2).toMap
    assert(m == Map("x" -> "z", "y" -> "z"))
  }
  test("compose tolerates cycles") {
    val m1 = Seq(("x", "y"), ("y", "x"))
    val m = Merging.compose(m1).toMap
    // resolution stops at the cycle; mapping stays functional
    assert(m.keys.toSet.subsetOf(Set("x", "y")))
  }
  test("compose of empty is empty") {
    val empty = Seq.empty[(String, String)]
    assert(Merging.compose(empty).size == 0)
  }

  // ---- gamma calibration -------------------------------------------------

  test("Gamma.calibrate averages synonym cosines") {
    val v = Map("a" -> Array(1f, 0f), "b" -> Array(1f, 0f), "c" -> Array(0f, 1f))
    val g = Gamma.calibrate(Seq(("a", "b"), ("a", "c")), v)
    assert(math.abs(g - 0.5) < 1e-6)
  }
  test("Gamma.calibrate default when no coverage") {
    assert(Gamma.calibrate(Seq(("x", "y")), Map.empty) == 0.57)
  }
  test("Gamma.calibrate skips partially covered pairs") {
    val v = Map("a" -> Array(1f, 0f), "b" -> Array(1f, 0f))
    assert(Gamma.calibrate(Seq(("a", "b"), ("a", "zz")), v) == 1.0)
  }
}
