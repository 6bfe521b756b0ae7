package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// encdecpairCheck enforces API symmetry: every exported Encode*/Compress*
// function or method must have a mirrored Decode*/Decompress* in the same
// package — either the exact counterpart name, or a bare exported
// Decode/Decompress when the stream is self-describing (this module's
// containers carry their own algorithm tag, so repro.CompressAbs decodes
// through repro.Decompress). When an exact pair exists and both sides
// take a named *Options struct, the structs must match field-for-field:
// an option the decoder cannot see is a stream the decoder cannot read.
type encdecpairCheck struct{}

func (encdecpairCheck) Name() string { return "encdecpair" }
func (encdecpairCheck) Doc() string {
	return "flag exported Encode/Compress without a mirrored Decode/Decompress (or with mismatched option structs)"
}

func (encdecpairCheck) Run(pkg *Package) []Finding {
	if pkg.Pkg.Name() == "main" || strings.HasSuffix(pkg.ImportPath, "_test") {
		return nil
	}
	// Index every exported function/method declared in library files.
	decls := map[string][]*ast.FuncDecl{}
	forEachFuncDecl(pkg, func(f *ast.File, d *ast.FuncDecl) {
		if pkg.IsTestFile(f) || !d.Name.IsExported() {
			return
		}
		decls[d.Name.Name] = append(decls[d.Name.Name], d)
	})

	var out []Finding
	for name, list := range decls {
		var mirror string
		switch {
		case strings.HasPrefix(name, "Encode") && wordBoundary(name[len("Encode"):]):
			mirror = "Decode" + name[len("Encode"):]
		case strings.HasPrefix(name, "Compress") && wordBoundary(name[len("Compress"):]):
			mirror = "Decompress" + name[len("Compress"):]
		default:
			continue
		}
		for _, d := range list {
			counterparts := decls[mirror]
			if len(counterparts) == 0 {
				// Self-describing-stream fallback: a bare decoder reads
				// any of the package's encoded forms.
				if bare := firstWord(mirror); len(decls[bare]) > 0 {
					continue
				}
				out = append(out, pkg.Module.newFinding("encdecpair", d.Name.Pos(),
					"exported %s has no mirrored %s in this package: every encoder needs a decoder", name, mirror))
				continue
			}
			if msg := optionsMismatch(pkg, d, counterparts); msg != "" {
				out = append(out, pkg.Module.newFinding("encdecpair", d.Name.Pos(),
					"option structs of %s and %s disagree: %s — a knob the decoder cannot see is a stream it cannot read", name, mirror, msg))
			}
		}
	}
	return out
}

// wordBoundary reports whether suffix starts a new camel-case word, so
// that Encode/Compress prefixes match EncodeAll and Compress32 but not
// Encoder or CompressionRatio.
func wordBoundary(suffix string) bool {
	if suffix == "" {
		return true
	}
	c := suffix[0]
	return (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

// firstWord reduces DecodeAll/DecompressStreamOpts to the bare fallback
// name (Decode/Decompress).
func firstWord(mirror string) string {
	if strings.HasPrefix(mirror, "Decompress") {
		return "Decompress"
	}
	return "Decode"
}

// optionsMismatch compares the encoder's *Options-style struct parameter
// with its counterpart's, field-for-field. Both sides must have one for
// the comparison to apply; the same named type trivially matches.
func optionsMismatch(pkg *Package, enc *ast.FuncDecl, decs []*ast.FuncDecl) string {
	encOpt := optionsParam(pkg, enc)
	if encOpt == nil {
		return ""
	}
	var msg string
	for _, dec := range decs {
		decOpt := optionsParam(pkg, dec)
		if decOpt == nil {
			return "" // decoder takes no options: nothing to compare
		}
		if types.Identical(encOpt, decOpt) {
			return ""
		}
		if m := structFieldDiff(encOpt, decOpt); m == "" {
			return ""
		} else {
			msg = m
		}
	}
	return msg
}

// optionsParam returns the underlying struct of the first parameter whose
// named type ends in "Options" (pointer dereferenced), or nil.
func optionsParam(pkg *Package, d *ast.FuncDecl) *types.Struct {
	obj := pkg.Info.Defs[d.Name]
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig := fn.Type().(*types.Signature)
	for i := 0; i < sig.Params().Len(); i++ {
		t := sig.Params().At(i).Type()
		if p, ok := t.Underlying().(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok || !strings.HasSuffix(named.Obj().Name(), "Options") {
			continue
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			return st
		}
	}
	return nil
}

// structFieldDiff describes the first field-level difference between two
// option structs ("" when they match field-for-field).
func structFieldDiff(a, b *types.Struct) string {
	fields := func(s *types.Struct) map[string]types.Type {
		m := make(map[string]types.Type, s.NumFields())
		for i := 0; i < s.NumFields(); i++ {
			m[s.Field(i).Name()] = s.Field(i).Type()
		}
		return m
	}
	af, bf := fields(a), fields(b)
	for name, at := range af {
		bt, ok := bf[name]
		if !ok {
			return "field " + name + " missing on the decode side"
		}
		if !types.Identical(at, bt) {
			return "field " + name + " has type " + at.String() + " vs " + bt.String()
		}
	}
	for name := range bf {
		if _, ok := af[name]; !ok {
			return "field " + name + " missing on the encode side"
		}
	}
	return ""
}
