package repro.core

import repro.embed.Embeddings

/** Data-node merging techniques (paper §II-C).
  *
  * Each technique produces `(variant, canon)` pairs, built on the driver
  * from terms the corpora already hold there ([[Corpus.terms]]), that
  * [[GraphBuilder]] applies to document terms before building nodes and
  * edges. Stemming-based merging is inherent in [[TextPrep.stem]].
  */
object Merging {

  /** Freedman–Diaconis bin width: `2 * IQR / n^(1/3)`; 0 when degenerate. */
  def fdBinWidth(values: Seq[Double]): Double = {
    if (values.size < 2) return 0.0
    val sorted = values.sorted
    def quantile(q: Double): Double = {
      val pos  = q * (sorted.size - 1)
      val lo   = pos.toInt
      val frac = pos - lo
      if (lo + 1 < sorted.size) sorted(lo) * (1 - frac) + sorted(lo + 1) * frac
      else sorted(lo)
    }
    val iqr = quantile(0.75) - quantile(0.25)
    2.0 * iqr / math.cbrt(sorted.size.toDouble)
  }

  /** Merge numeric terms into equal-width buckets, width per the FD rule
    * computed over the distinct numeric values observed across corpora.
    * Each numeric term maps to a bucket node `num⟨i⟩` where `i` is the
    * bucket index from the global minimum.
    */
  def numericBucketMap(terms: Iterable[String]): Seq[(String, String)] = {
    val nums = terms.iterator.filter(TextPrep.isNumeric).distinct.toSeq
    val vals = nums.map(_.toDouble)
    if (vals.size < 2) return Seq.empty
    val width = fdBinWidth(vals.distinct)
    if (width <= 0) return Seq.empty
    val lo = vals.min
    nums.map { t =>
      val idx = math.floor((t.toDouble - lo) / width).toLong
      (t, s"num<$idx>")
    }
  }

  /** Dictionary-based merging (synonyms, acronyms, typos from an external
    * lexical resource). Entries are preprocessed with the same pipeline as
    * corpus text so that variants meet graph terms in stemmed n-gram form.
    * Multi-token entries are rendered with `_` separators.
    */
  def dictionaryMap(pairs: Seq[(String, String)]): Seq[(String, String)] = {
    def norm(s: String): String = TextPrep.terms1(s).mkString("_")
    pairs
      .map { case (v, c) => (norm(v), norm(c)) }
      .filter { case (v, c) => v.nonEmpty && c.nonEmpty && v != c }
      .distinct
  }

  /** Embedding-similarity merging: merge term pairs whose cosine in a
    * pre-trained model exceeds γ (paper: Wikipedia2Vec, γ = 0.57 from a
    * WordNet synonym list — see [[Gamma.calibrate]]). Connected variants
    * collapse to the lexicographically smallest member via union-find.
    *
    * `vocabVectors` is the pre-trained model; only the terms it covers
    * take part. All pairs are scored on the driver.
    */
  def gammaMergeMap(
      terms: Iterable[String],
      vocabVectors: Map[String, Array[Float]],
      gamma: Double): Seq[(String, String)] = {
    val inVocab = terms.iterator.filter(vocabVectors.contains).distinct.toArray.sorted
    val vecs = inVocab.map(vocabVectors)

    // Union-find over merged pairs; representative = smallest label.
    val parent = scala.collection.mutable.Map.empty[String, String]
    def find(x: String): String = {
      val p = parent.getOrElse(x, x)
      if (p == x) x else { val r = find(p); parent(x) = r; r }
    }
    def union(a: String, b: String): Unit = {
      val (ra, rb) = (find(a), find(b))
      if (ra != rb) { if (ra < rb) parent(rb) = ra else parent(ra) = rb }
    }
    for (i <- inVocab.indices; j <- i + 1 until inVocab.length)
      if (Embeddings.cosine(vecs(i), vecs(j)) >= gamma) union(inVocab(i), inVocab(j))
    parent.keys.toSeq.map(t => (t, find(t))).filter { case (v, c) => v != c }
  }

  /** Compose several merge maps, resolving chains (variant → mid → canon). */
  def compose(maps: Seq[(String, String)]*): Seq[(String, String)] = {
    val m = scala.collection.mutable.Map(maps.flatten: _*)
    def resolve(t: String, seen: Set[String]): String =
      m.get(t) match {
        case Some(c) if !seen(c) => resolve(c, seen + t)
        case _                   => t
      }
    m.keys.toSeq.map(v => (v, resolve(v, Set(v)))).filter { case (v, c) => v != c }
  }
}
