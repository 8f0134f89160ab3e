package repro.core

/** Text preprocessing for graph creation (paper §II).
  *
  * Pipeline per document: lowercase → tokenize → drop stop-words → stem
  * (Porter) → build n-gram *terms* for n = 1..maxN. A term of n tokens is
  * rendered with `_` separators (e.g. `the_sixth_sense`), matching the
  * paper's multi-token data nodes (§II-D).
  *
  * Everything here is a pure function usable inside Spark UDFs; no state.
  */
object TextPrep {

  /** Minimal English stop-word list (paper removes stop-words before
    * building terms; the exact list is not specified).
    */
  val StopWords: Set[String] = Set(
    "a", "an", "and", "are", "as", "at", "be", "by", "for", "from", "has",
    "have", "had", "he", "in", "is", "it", "its", "of", "on", "that", "the",
    "to", "was", "were", "will", "with", "this", "these", "those", "they",
    "them", "their", "then", "there", "but", "or", "not", "no", "so", "we",
    "you", "your", "i", "me", "my", "she", "her", "his", "him", "do", "does",
    "did", "than", "too", "very", "can", "could", "would", "should", "been",
    "being", "into", "about", "after", "before", "over", "under", "again",
    "all", "any", "both", "each", "few", "more", "most", "other", "some",
    "such", "only", "own", "same", "s", "t", "just", "now", "also", "if",
    "because", "while", "during", "out", "up", "down", "off", "what", "which",
    "who", "whom", "when", "where", "why", "how",
  )

  /** Lowercase and split on non-alphanumeric characters, keeping digits
    * and decimal points inside numbers (cell values like `7.5` stay one
    * token). Empty tokens are dropped.
    */
  def tokenize(text: String): Seq[String] = {
    if (text == null) return Seq.empty
    val sb  = new StringBuilder
    val out = Seq.newBuilder[String]
    def flush(): Unit = { if (sb.nonEmpty) { out += sb.result(); sb.clear() } }
    val lower = text.toLowerCase
    var i = 0
    while (i < lower.length) {
      val c = lower.charAt(i)
      if (c.isLetterOrDigit) sb += c
      else if (c == '.' && sb.nonEmpty && sb.last.isDigit &&
               i + 1 < lower.length && lower.charAt(i + 1).isDigit) sb += c
      else flush()
      i += 1
    }
    flush()
    out.result()
  }

  def isNumeric(tok: String): Boolean =
    tok.nonEmpty && tok.forall(c => c.isDigit || c == '.') &&
      tok.count(_ == '.') <= 1 && tok.exists(_.isDigit)

  /** Porter stemmer (Porter 1980), the classic 5-step suffix stripper.
    * Numbers and tokens shorter than 3 characters pass through unchanged.
    */
  def stem(word: String): String = {
    if (word.length < 3 || isNumeric(word)) return word
    var b = word

    def isCons(s: String, i: Int): Boolean = s.charAt(i) match {
      case 'a' | 'e' | 'i' | 'o' | 'u' => false
      case 'y'                         => if (i == 0) true else !isCons(s, i - 1)
      case _                           => true
    }

    /** Measure m: number of VC sequences in the stem. */
    def measure(s: String): Int = {
      var m = 0; var i = 0; val n = s.length
      while (i < n && isCons(s, i)) i += 1
      while (i < n) {
        while (i < n && !isCons(s, i)) i += 1
        if (i < n) { m += 1; while (i < n && isCons(s, i)) i += 1 }
      }
      m
    }

    def hasVowel(s: String): Boolean = s.indices.exists(i => !isCons(s, i))

    def endsDoubleCons(s: String): Boolean =
      s.length >= 2 && s.last == s.charAt(s.length - 2) && isCons(s, s.length - 1)

    /** *o: stem ends cvc where final c is not w, x or y. */
    def cvc(s: String): Boolean =
      s.length >= 3 && isCons(s, s.length - 3) && !isCons(s, s.length - 2) &&
        isCons(s, s.length - 1) && !"wxy".contains(s.last)

    def replace(suffix: String, repl: String, cond: String => Boolean): Boolean =
      if (b.endsWith(suffix)) {
        val stem = b.dropRight(suffix.length)
        if (cond(stem)) { b = stem + repl; true } else true // matched: stop scanning
      } else false

    // Step 1a
    if (b.endsWith("sses")) b = b.dropRight(2)
    else if (b.endsWith("ies")) b = b.dropRight(2)
    else if (b.endsWith("ss")) ()
    else if (b.endsWith("s") && b.length > 1) b = b.dropRight(1)

    // Step 1b
    var step1bFlag = false
    if (b.endsWith("eed")) { if (measure(b.dropRight(3)) > 0) b = b.dropRight(1) }
    else if (b.endsWith("ed") && hasVowel(b.dropRight(2))) { b = b.dropRight(2); step1bFlag = true }
    else if (b.endsWith("ing") && hasVowel(b.dropRight(3))) { b = b.dropRight(3); step1bFlag = true }
    if (step1bFlag) {
      if (b.endsWith("at") || b.endsWith("bl") || b.endsWith("iz")) b = b + "e"
      else if (endsDoubleCons(b) && !"lsz".contains(b.last)) b = b.dropRight(1)
      else if (measure(b) == 1 && cvc(b)) b = b + "e"
    }

    // Step 1c
    if (b.endsWith("y") && hasVowel(b.dropRight(1))) b = b.dropRight(1) + "i"

    // Step 2 (m > 0 suffix mappings)
    val step2 = Seq(
      "ational" -> "ate", "tional" -> "tion", "enci" -> "ence", "anci" -> "ance",
      "izer" -> "ize", "abli" -> "able", "alli" -> "al", "entli" -> "ent",
      "eli" -> "e", "ousli" -> "ous", "ization" -> "ize", "ation" -> "ate",
      "ator" -> "ate", "alism" -> "al", "iveness" -> "ive", "fulness" -> "ful",
      "ousness" -> "ous", "aliti" -> "al", "iviti" -> "ive", "biliti" -> "ble",
    )
    step2.find { case (s, _) => b.endsWith(s) }.foreach { case (s, r) =>
      val stem = b.dropRight(s.length); if (measure(stem) > 0) b = stem + r
    }

    // Step 3
    val step3 = Seq(
      "icate" -> "ic", "ative" -> "", "alize" -> "al", "iciti" -> "ic",
      "ical" -> "ic", "ful" -> "", "ness" -> "",
    )
    step3.find { case (s, _) => b.endsWith(s) }.foreach { case (s, r) =>
      val stem = b.dropRight(s.length); if (measure(stem) > 0) b = stem + r
    }

    // Step 4 (m > 1 suffix removal; longest suffix wins; "ion" needs s/t stem)
    val step4 = Seq(
      "al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
      "ment", "ent", "ion", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
    )
    step4.filter(b.endsWith).sortBy(-_.length).headOption.foreach { s =>
      val stem = b.dropRight(s.length)
      val ok =
        if (s == "ion") stem.nonEmpty && (stem.last == 's' || stem.last == 't')
        else true
      if (ok && measure(stem) > 1) b = stem
    }

    // Step 5a
    if (b.endsWith("e")) {
      val stem = b.dropRight(1)
      if (measure(stem) > 1 || (measure(stem) == 1 && !cvc(stem))) b = stem
    }
    // Step 5b
    if (measure(b) > 1 && endsDoubleCons(b) && b.last == 'l') b = b.dropRight(1)

    b
  }

  /** Full per-document preprocessing: tokenize, drop stop-words, stem. */
  def terms1(text: String): Seq[String] =
    tokenize(text).filterNot(StopWords.contains).map(stem)

  /** n-gram terms over the *stop-word-free, stemmed* token sequence for
    * n = 1..maxN, joined with `_` (paper §II-D: for n=3 "The Sixth Sense"
    * yields five data nodes).
    *
    * n-grams are built within the given text unit (a cell value or a
    * sentence), never across units — callers pass one unit at a time.
    */
  def terms(text: String, maxN: Int): Seq[String] = ngrams(terms1(text), maxN)

  /** The distinct n-grams of `toks` for n = 1..maxN, joined with `_`. */
  def ngrams(toks: Seq[String], maxN: Int): Seq[String] =
    (1 to math.max(1, maxN)).flatMap { n =>
      if (toks.length < n) Seq.empty
      else toks.sliding(n).map(_.mkString("_")).toSeq
    }.distinct
}
